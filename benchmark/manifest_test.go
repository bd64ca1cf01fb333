package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

type manifestEntry struct {
	Name, Unit, Better string
	Bound              *float64
}

// The names and units the benchmark emits and the ones BENCHMARK.json
// promises must be the same sets.
func TestManifestMatchesEmittedNames(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var mf struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []manifestEntry `json:"end_to_end"`
		PerLayer   []manifestEntry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &mf); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, entries []manifestEntry, units map[string]string, bounded bool) {
		seen := map[string]bool{}
		for _, e := range entries {
			if seen[e.Name] {
				t.Errorf("%s %s listed twice", kind, e.Name)
			}
			seen[e.Name] = true
			if unit, ok := units[e.Name]; !ok {
				t.Errorf("%s %s is in BENCHMARK.json but never emitted", kind, e.Name)
			} else if unit != e.Unit {
				t.Errorf("%s %s: emitted in %q, declared in %q", kind, e.Name, unit, e.Unit)
			}
			if e.Better != "lower" && e.Better != "higher" {
				t.Errorf("%s %s: better is %q", kind, e.Name, e.Better)
			}
			if bounded != (e.Bound != nil) || bounded && (*e.Bound <= 0 || *e.Bound > 0.25) {
				t.Errorf("%s %s: bound %v", kind, e.Name, e.Bound)
			}
		}
		for name := range units {
			if !seen[name] {
				t.Errorf("%s %s is emitted but missing from BENCHMARK.json", kind, name)
			}
		}
	}
	check("end-to-end metric", mf.EndToEnd, endToEndUnits, true)
	check("per-layer metric", mf.PerLayer, perLayerUnits, false)

	if len(mf.Workloads) != len(specs) {
		t.Errorf("%d workloads declared, %d defined", len(mf.Workloads), len(specs))
	}
	for i, w := range mf.Workloads {
		if i < len(specs) && w.Name != specs[i].Name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in spec.go", i, w.Name, specs[i].Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if len(mf.Paths) != 1 || mf.Paths[0] != "benchmark" || mf.RunSeconds < 1 || mf.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", mf.Paths, mf.RunSeconds)
	}
	// Every run of the driver: 4 + 22 per workload, each with set-up and
	// gates on top of run_seconds, must fit the contract's cap.
	runs := 4 + 22*len(mf.Workloads)
	if total := runs * (mf.RunSeconds + 7); total > 3420-120 {
		t.Errorf("%d runs of %d+7 s come to %d s, over the cap", runs, mf.RunSeconds, total)
	}
}
