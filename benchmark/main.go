// Command benchmark is mini-RAID's one benchmark: four workloads driven
// through the public internal/cluster API of in-process clusters, the
// end-to-end metrics a user of the system would see, a traced run with
// per-layer metrics and a latency budget, and correctness gates on every
// run. BENCHMARK.json at the repository root names the workloads, the
// metrics and their regression bounds; README.md explains them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: lan-mem, lan-wal, wan3-epoch or failrec")
	seed := flag.Uint64("seed", 1, "seed of the transaction stream")
	seconds := flag.Float64("seconds", 27, "seconds to measure for")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: the traced run's per-layer metrics")
	data := flag.String("data", filepath.Join(".bench_build", "data"), "directory for the runs' WAL files")
	selfcheck := flag.Bool("selfcheck", false, "run every workload with seeds 1 and 2 and compare the two against the bounds in -manifest")
	manifest := flag.String("manifest", "BENCHMARK.json", "the benchmark's manifest, read by -selfcheck")
	flag.Parse()
	if *selfcheck {
		if err := selfCheck(*manifest, *seconds, *data); err != nil {
			fmt.Fprintln(os.Stderr, "selfcheck:", err)
			os.Exit(1)
		}
		return
	}
	spec, err := specByName(*workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *seconds <= 0 || *traced < 0 || *traced > 1 {
		fmt.Fprintln(os.Stderr, "need -seconds > 0 and -trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(spec, *seed, *seconds, *traced == 1, *data)
	if err != nil {
		// A failed gate prints no result: the run has no numbers to trust.
		fmt.Fprintln(os.Stderr, "FAILED:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run measures one workload and returns the contract's result. The lines
// it prints before that are for people: the stream's fingerprint, the
// sample counts behind the percentiles, and what failed and why.
func run(spec Spec, seed uint64, seconds float64, traced bool, data string) (*result, error) {
	dir := filepath.Join(data, fmt.Sprintf("%s-%d", spec.Name, os.Getpid()))
	defer os.RemoveAll(dir)
	if spec.Procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(spec.Procs))
	}
	stream := spec.stream(seed)
	fmt.Printf("workload %s seed %d seconds %g trace %v stream fingerprint %016x\n",
		spec.Name, seed, seconds, traced, stream.Fingerprint())
	share := func(f float64) time.Duration { return time.Duration(f * seconds * float64(time.Second)) }

	if !traced {
		pl := plan{setups: 3, closed: share(closedShare), open: share(openShare), cycles: share(cycleShare)}
		if spec.cyclesOnly() {
			pl = plan{setups: 3, cycles: share(1)}
		}
		out, err := measure(spec, seed, pl, dir)
		if err != nil {
			return nil, err
		}
		out.describe("measured")
		return &result{Correct: true, Attempted: out.attempted, Failed: out.failed,
			Metrics: withUnits(out.endToEnd(), endToEndUnits)}, nil
	}

	// The traced run measures the workload twice, without and with the
	// benchmark's instrumentation, so the overhead of tracing is itself
	// a number; then the probes. About a fifth of the time is theirs.
	const loadShare = 0.8
	plainPlan := plan{setups: 1, closed: share(0.2 * loadShare)}
	tracedPlan := plan{setups: 1, probe: &storeProbe{},
		closed: share(0.2 * loadShare), single: share(0.15 * loadShare),
		open: share(0.2 * loadShare), cycles: share(0.25 * loadShare)}
	if spec.cyclesOnly() {
		plainPlan = plan{setups: 1, cycles: share(0.4 * loadShare)}
		tracedPlan = plan{setups: 1, probe: tracedPlan.probe, cycles: share(0.6 * loadShare)}
	}
	plain, err := measure(spec, seed, plainPlan, filepath.Join(dir, "plain"))
	if err != nil {
		return nil, fmt.Errorf("untraced measurement: %w", err)
	}
	plain.describe("untraced")
	with, err := measure(spec, seed, tracedPlan, filepath.Join(dir, "traced"))
	if err != nil {
		return nil, fmt.Errorf("traced measurement: %w", err)
	}
	with.describe("traced")
	unit, err := probes(spec, seed)
	if err != nil {
		return nil, err
	}
	return &result{Correct: true, Attempted: plain.attempted + with.attempted, Failed: plain.failed + with.failed,
		Metrics: withUnits(perLayer(plain, with, tracedPlan.probe, unit), perLayerUnits)}, nil
}

// describe prints what stands behind an outcome's numbers, and the three
// quantities that are too unsteady in the sandbox to carry a bound (see
// README.md, "What is not end to end") as they were on this run.
func (o *outcome) describe(label string) {
	s := o.sum
	fmt.Printf("%s: committed closed %d, single %d, open %d, cycles %d; medians rest on %d samples, p99 on %d (tail percentile %.4g)\n",
		label, o.closed.committed, o.single.committed, o.open.committed, o.cycleCommitted, s.latSamples, s.tailSamples, s.tailQ)
	fmt.Printf("%s: closed-phase p99 %.4f ms, recovery %.3f ms, heal %.0f items/s\n", label, s.p99, s.recoverMs, s.healItemsPerS)
	fmt.Printf("%s: %d cycles, %d unclean %v; %d aborts inside outage windows\n",
		label, s.cycles, s.unclean, s.uncleanWhy, o.outageAborts)
	if o.open.elapsed > 0 {
		fmt.Printf("%s: open loop %.0f/s issued %d arrivals in %.2f s; %.2f %% were issued over 1 ms late, lateness p99 %.3f ms (sleep overshoot, kept out of the latencies)\n",
			label, o.spec.OpenRate, o.open.attempted, o.open.elapsed.Seconds(), 100*s.lateFrac, s.lateP99Ms)
	}
	if o.trafficUnclean != "" {
		fmt.Printf("%s: repaired after the traffic phases: %s\n", label, o.trafficUnclean)
	}
	fmt.Printf("%s: attempted %d, failed %d (aborts %v, errors %d)\n", label, o.attempted, o.failed, o.aborts, o.errs)
	fmt.Printf("%s: set-ups took %.2f s, gates and tear-down %.2f s\n", label, o.setups, o.gates.Seconds())
}

// manifestFile is the part of BENCHMARK.json the self-check reads.
type manifestFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name   string
		Better string
		Bound  float64
	} `json:"end_to_end"`
}

// selfCheck runs every workload with seeds 1 and 2 on the same code, each
// run a process of its own as the driver's are, and prints, per metric and
// workload, the two values, their relative gap and the bound; it fails if
// a gap exceeds its bound. It is a quick look at whether the bounds hold
// run to run; the quartile spread over ten seeds in README.md is the
// careful one.
func selfCheck(path string, seconds float64, data string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var mf manifestFile
	if err := json.Unmarshal(raw, &mf); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	sort.Slice(mf.EndToEnd, func(i, j int) bool { return mf.EndToEnd[i].Name < mf.EndToEnd[j].Name })
	exceeded := 0
	for _, w := range mf.Workloads {
		var runs [2]map[string]metric
		for i := range runs {
			res, err := runChild(w.Name, i+1, seconds, data)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.Name, i+1, err)
			}
			runs[i] = res.Metrics
		}
		for _, m := range mf.EndToEnd {
			a, b := runs[0][m.Name].Value, runs[1][m.Name].Value
			gap := 0.0
			if a != 0 {
				gap = math.Abs(b-a) / a
			}
			mark := ""
			if gap > m.Bound {
				mark = "  EXCEEDS"
				exceeded++
			}
			fmt.Printf("selfcheck %-11s %-15s seed1 %12.4f  seed2 %12.4f  gap %5.1f %%  bound %4.0f %%%s\n",
				w.Name, m.Name, a, b, 100*gap, 100*m.Bound, mark)
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("%d metric x workload pairs differ by more than their bound", exceeded)
	}
	return nil
}

// runChild measures one workload in a child process and returns the
// result it printed; the child's preamble is passed through.
func runChild(workload string, seed int, seconds float64, data string) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", "0", "--data", data)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	for _, line := range lines[:len(lines)-1] {
		fmt.Println(line)
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("last line of the run is not a result: %w", err)
	}
	return &res, nil
}
