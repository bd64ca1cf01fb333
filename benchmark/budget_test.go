package main

import (
	"math"
	"testing"
)

func TestBudgetLinesSumToTheMedian(t *testing.T) {
	unit := map[string]float64{
		"msg.marshal_ns": 430, "msg.unmarshal_ns": 500, "transport.mem_rtt_us": 5.1, "transport.fanout_us": 13.9,
		"storage.apply_p50_us": 0.3, "storage.get_ns": 460, "core.faillock_maintain_ns": 21,
		"metrics.observe_ns": 32, "trace.emit_ns": 71, "lockmgr.acquire_release_ns": 3000, "wire.frame_write_ns": 46,
	}
	for _, in := range []budgetInputs{
		{sites: 4, concurrent: true, wal: true, p50Us: 310.5, writeShare: 0.81, msgsPerCommit: 11.7, appliesPerCommit: 6.1, getsPerCommit: 9, observesPerCommit: 4.2, unit: unit},
		{sites: 6, p50Us: 17500, writeShare: 0.8, msgsPerCommit: 15.6, appliesPerCommit: 9, getsPerCommit: 3, observesPerCommit: 6, unit: unit},
		{sites: 4, p50Us: 10, writeShare: 1, msgsPerCommit: 14, appliesPerCommit: 20, unit: unit}, // more work than latency
		{sites: 1, p50Us: 3, unit: unit},
	} {
		got := budget(in)
		sum := got["budget.unexplained_us"]
		for _, mod := range budgetModules {
			v, ok := got["budget."+mod+"_us"]
			if !ok || v < 0 {
				t.Errorf("budget.%s_us = %g, present %v", mod, v, ok)
			}
			sum += v
		}
		if math.Abs(sum-in.p50Us) > 1e-9*math.Max(1, in.p50Us) || got["budget.txn_p50_us"] != in.p50Us {
			t.Errorf("lines sum to %.12g, median is %.12g", sum, in.p50Us)
		}
		if len(got) != len(budgetModules)+2 {
			t.Errorf("budget has %d lines, want %d", len(got), len(budgetModules)+2)
		}
		if !in.concurrent && got["budget.lockmgr_us"] != 0 || !in.wal && got["budget.wire_us"] != 0 {
			t.Error("serial processing charged for locks, or a memory store for frames")
		}
	}
}
