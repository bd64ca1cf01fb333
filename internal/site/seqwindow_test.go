package site

import "testing"

// The window's contract, one case per line of it: an exact duplicate inside
// the window is dropped; a lower seq arriving after a higher one is not a
// duplicate (concurrent calls on one caller can hit the wire with seqs
// inverted, so watermark semantics must not leak back in); and a seq is
// forgotten once the sender's counter has moved seqWindowSize past it.
func TestSeqWindow(t *testing.T) {
	const base = 1 << 40 // callers seed their counters from the clock
	type step struct {
		seq   uint64
		fresh bool
	}
	run := func(from, to uint64) []step {
		var steps []step
		for seq := from; seq <= to; seq++ {
			steps = append(steps, step{seq, true})
		}
		return steps
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{"duplicate inside the window", []step{
			{base + 5, true}, {base + 6, true}, {base + 7, true},
			{base + 5, false}, {base + 6, false}, {base + 7, false},
		}},
		{"out-of-order lower seq", []step{
			{base + 10, true}, {base + 9, true},
			{base + 10, false}, {base + 9, false},
		}},
		{"duplicate at the far edge of the window", append(
			run(base, base+seqWindowSize-1),
			step{base, false}, step{base + seqWindowSize - 1, false},
		)},
		{"eviction after seqWindowSize", append(
			run(base, base+seqWindowSize+1),
			// base and base+1 gave their slots to the last two; the rest
			// of the window stands.
			step{base + 2, false}, step{base + seqWindowSize + 1, false},
			step{base, true}, step{base + 1, true},
		)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := new(seqWindow)
			for i, st := range tc.steps {
				if got := w.add(st.seq); got != st.fresh {
					t.Fatalf("step %d: add(base+%d) = %v, want %v", i, st.seq-base, got, st.fresh)
				}
			}
		})
	}
}
