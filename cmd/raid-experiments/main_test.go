package main

import (
	"flag"
	"io"
	"testing"
)

// TestParseArgs: the soak subcommand keeps its own flag set, a bare
// command line runs the experiments, and a stray word — a typo, or the
// removed `bench` subcommand from someone's shell history — is rejected
// instead of falling through to a minute of every experiment.
func TestParseArgs(t *testing.T) {
	for _, tc := range []struct {
		name     string
		args     []string
		wantSoak bool
		wantErr  bool
	}{
		{name: "soak", args: []string{"soak", "-seeds", "1"}, wantSoak: true},
		{name: "no args"},
		{name: "flags only", args: []string{"-run", "f1"}},
		{name: "unknown word", args: []string{"bnch"}, wantErr: true},
		{name: "removed subcommand", args: []string{"bench", "-txns", "150"}, wantErr: true},
		{name: "word after flags", args: []string{"-run", "f1", "soak"}, wantErr: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("raid-experiments", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			fs.String("run", "all", "")
			soak, err := parseArgs(fs, tc.args)
			if soak != tc.wantSoak || (err != nil) != tc.wantErr {
				t.Fatalf("parseArgs(%q) = soak %v, err %v; want soak %v, err %v", tc.args, soak, err, tc.wantSoak, tc.wantErr)
			}
		})
	}
}
