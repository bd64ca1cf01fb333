package failure

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestRandomSchedulesValid draws many schedules across seeds and site
// counts and checks the generator's contract: sorted valid events, and at
// least one site up at every transaction boundary.
func TestRandomSchedulesValid(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	for sites := 2; sites <= 5; sites++ {
		for seed := 0; seed < seeds; seed++ {
			cfg := RandomConfig{Sites: sites, Txns: 60}
			sched, err := Random(cfg, rand.New(rand.NewSource(int64(seed))))
			if err != nil {
				t.Fatalf("sites=%d seed=%d: %v", sites, seed, err)
			}
			if err := sched.Validate(sites); err != nil {
				t.Fatalf("sites=%d seed=%d: invalid schedule: %v", sites, seed, err)
			}
			for txn := 1; txn <= sched.Txns; txn++ {
				if len(upAt(sched, sites, txn)) == 0 {
					t.Fatalf("sites=%d seed=%d: no site up at txn %d", sites, seed, txn)
				}
			}
		}
	}
}

// TestRandomScheduleDeterministic checks that identical (config, seed)
// produce identical schedules — the property soak reproducibility rests on.
func TestRandomScheduleDeterministic(t *testing.T) {
	cfg := RandomConfig{Sites: 4, Txns: 100}
	a, err := Random(cfg, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Random(cfg, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different schedules:\n%v\n%v", a, b)
	}
	c, err := Random(cfg, rand.New(rand.NewSource(43)))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatalf("different seeds produced identical schedules: %v", a)
	}
}

// TestRandomScheduleRespectsMaxDown replays generated schedules and checks
// the simultaneous-failure cap.
func TestRandomScheduleRespectsMaxDown(t *testing.T) {
	cfg := RandomConfig{Sites: 5, Txns: 80, Events: 60, MaxDown: 2}
	for seed := 0; seed < 50; seed++ {
		sched, err := Random(cfg, rand.New(rand.NewSource(int64(seed))))
		if err != nil {
			t.Fatal(err)
		}
		for txn := 1; txn <= sched.Txns; txn++ {
			if down := cfg.Sites - len(upAt(sched, cfg.Sites, txn)); down > cfg.MaxDown {
				t.Fatalf("seed=%d: %d sites down at txn %d, cap %d", seed, down, txn, cfg.MaxDown)
			}
		}
	}
}

// TestRandomScheduleRejectsBadConfig checks input validation.
func TestRandomScheduleRejectsBadConfig(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := Random(RandomConfig{Sites: 1, Txns: 10}, rng); err == nil {
		t.Fatal("expected error for 1 site")
	}
	if _, err := Random(RandomConfig{Sites: 3, Txns: 0}, rng); err == nil {
		t.Fatal("expected error for 0 txns")
	}
}
