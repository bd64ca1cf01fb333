package main

import (
	"testing"
)

// The smoke runs drive every workload end to end through the gates for a
// second or two; numbers from runs this short mean nothing, the names and
// the gates do.
func TestSmokeEndToEnd(t *testing.T) {
	seconds := 2.0
	if testing.Short() {
		seconds = 0.5
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			res, err := run(spec, 1, seconds, false, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("correct %v attempted %d failed %d", res.Correct, res.Attempted, res.Failed)
			}
			sameNames(t, res.Metrics, endToEndUnits)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %g; an end-to-end metric is never 0", name, m.Value)
				}
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	seconds := 4.0
	if testing.Short() {
		seconds = 2
	}
	for _, name := range []string{"lan-wal", "failrec"} {
		spec, err := specByName(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			res, err := run(spec, 2, seconds, true, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			sameNames(t, res.Metrics, perLayerUnits)
			sum := res.Metrics["budget.unexplained_us"].Value
			for _, mod := range budgetModules {
				sum += res.Metrics["budget."+mod+"_us"].Value
			}
			if p50 := res.Metrics["budget.txn_p50_us"].Value; p50 <= 0 || sum < p50*(1-1e-9) || sum > p50*(1+1e-9) {
				t.Errorf("budget lines sum to %g, single-client median is %g", sum, p50)
			}
			if spec.WAL && res.Metrics["storage.wal_bytes_per_commit"].Value <= 0 {
				t.Error("a WAL workload logged no bytes")
			}
		})
	}
}

func sameNames(t *testing.T, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		if m, ok := got[name]; !ok {
			t.Errorf("metric %s not emitted", name)
		} else if m.Unit != unit {
			t.Errorf("metric %s emitted in %q, want %q", name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("metric %s emitted but not declared", name)
		}
	}
}
