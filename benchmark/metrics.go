package main

import (
	"sort"
	"time"

	"minraid/internal/site"
	"minraid/internal/txn"
)

// metric is one reported number; the JSON shape is the contract's.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndUnits names every end-to-end metric and its unit. BENCHMARK.json
// lists the same names (a test holds the two together) and adds the
// direction and the regression bound.
var endToEndUnits = map[string]string{
	"setup_s":        "s",
	"committed_tps":  "1/s",
	"txn_p50_ms":     "ms",
	"write_p50_ms":   "ms",
	"cpu_us_per_txn": "us",
	"live_heap_mb":   "MB",
	"outage_ms":      "ms",
	"degraded_tps":   "1/s",
}

// abortReasons maps the program's abort reasons to metric name suffixes;
// anything else is counted under "other".
var abortReasons = map[string]string{
	txn.AbortLockTimeout:     "lock_timeout",
	txn.AbortDeadlock:        "deadlock",
	txn.AbortParticipantDown: "participant_down",
	txn.AbortStaleSession:    "stale_session",
}

// budgetModules are the modules the latency budget has a line for.
var budgetModules = []string{"wire", "msg", "transport", "lockmgr", "storage", "core", "metrics", "trace"}

// perLayerUnits names every per-layer metric and its unit.
var perLayerUnits = func() map[string]string {
	m := map[string]string{
		"wire.frame_write_ns":          "ns",
		"wire.frame_read_ns":           "ns",
		"wire.allocs_per_frame":        "count",
		"msg.marshal_ns":               "ns",
		"msg.unmarshal_ns":             "ns",
		"msg.allocs_per_roundtrip":     "count",
		"msg.bytes_per_commit":         "B",
		"transport.mem_rtt_us":         "us",
		"transport.fanout_us":          "us",
		"transport.msgs_per_commit":    "count",
		"lockmgr.acquire_release_ns":   "ns",
		"lockmgr.handoff_us":           "us",
		"storage.apply_p50_us":         "us",
		"storage.apply_p99_us":         "us",
		"storage.get_ns":               "ns",
		"storage.applies_per_commit":   "count",
		"storage.wal_bytes_per_commit": "B",
		"storage.compactions":          "count",
		"core.faillock_maintain_ns":    "ns",
		"core.faillock_snapshot_us":    "us",
		"core.vector_merge_ns":         "ns",
		"metrics.observe_ns":           "ns",
		"metrics.observe_contended_ns": "ns",
		"trace.emit_ns":                "ns",
		"trace.overhead_frac":          "1",
		"site.coord_mean_us":           "us",
		"site.part_mean_us":            "us",
		"site.copiers_per_recovery":    "count",
		"site.ctrl1_mean_us":           "us",
		"site.ctrl2_mean_us":           "us",
		"site.abort_frac.other":        "1",
		"cluster.exec_overhead_us":     "us",
		"cluster.audit_ms":             "ms",
		"cluster.settle_ms":            "ms",
		"cluster.recover_ms":           "ms",
		"cluster.heal_items_per_s":     "1/s",
		"workload.next_ns":             "ns",
		"workload.gen_late_p99_ms":     "ms",
		"workload.gen_late_frac":       "1",
		"workload.closed_p99_ms":       "ms",
		"workload.open_p99_ms":         "ms",
		"workload.read_p50_ms":         "ms",
		"workload.window_spread":       "1",
		"proc.alloc_kb_per_txn":        "kB",
		"proc.gc_pause_ms_per_s":       "ms/s",
		"budget.txn_p50_us":            "us",
		"budget.unexplained_us":        "us",
	}
	for _, suffix := range abortReasons {
		m["site.abort_frac."+suffix] = "1"
	}
	for _, mod := range budgetModules {
		m["budget."+mod+"_us"] = "us"
	}
	return m
}()

func withUnits(values map[string]float64, units map[string]string) map[string]metric {
	out := make(map[string]metric, len(values))
	for name, v := range values {
		out[name] = metric{Value: v, Unit: units[name]}
	}
	return out
}

// endToEnd is what a user of the system would see of one run.
func (o *outcome) endToEnd() map[string]float64 {
	s := o.sum
	return map[string]float64{
		"setup_s":        Median(o.setups),
		"committed_tps":  s.tps,
		"txn_p50_ms":     s.p50,
		"write_p50_ms":   s.writeP50,
		"cpu_us_per_txn": s.cpuUs,
		"live_heap_mb":   o.liveHeapMB,
		"outage_ms":      s.outageMs,
		"degraded_tps":   s.degradedTps,
	}
}

func perCommit(total float64, committed int) float64 {
	if committed == 0 {
		return 0
	}
	return total / float64(committed)
}

// perLayer assembles the traced run's metrics: the microprobes' unit
// costs, the counts and timers of the traced measurement, the tracing
// overhead against the untraced measurement, and the latency budget.
func perLayer(plain, traced *outcome, probe *storeProbe, unit map[string]float64) map[string]float64 {
	m := map[string]float64{}
	for name, v := range unit {
		m[name] = v
	}
	s := traced.sum
	spec := traced.spec

	m["trace.overhead_frac"] = 0
	if plain.sum.tps > 0 {
		m["trace.overhead_frac"] = 1 - s.tps/plain.sum.tps
	}
	m["transport.msgs_per_commit"] = perCommit(float64(traced.cost.msgs), traced.costed)
	m["proc.alloc_kb_per_txn"] = perCommit(float64(traced.cost.alloc)/1000, traced.costed)
	m["proc.gc_pause_ms_per_s"] = 0
	if traced.costed > 0 && s.tps > 0 {
		seconds := float64(traced.costed) / s.tps
		m["proc.gc_pause_ms_per_s"] = float64(traced.cost.gcPause) / float64(time.Millisecond) / seconds
	}

	applies := append([]int64(nil), probe.applyNs...)
	sort.Slice(applies, func(i, j int) bool { return applies[i] < applies[j] })
	applyUs := make([]float64, len(applies))
	for i, ns := range applies {
		applyUs[i] = float64(ns) / 1000
	}
	m["storage.apply_p50_us"] = Median(applyUs)
	m["storage.apply_p99_us"], _ = tail(applyUs, 0.99)
	m["storage.get_ns"] = 0
	if probe.gets > 0 {
		m["storage.get_ns"] = float64(probe.getNs) / float64(probe.gets)
	}
	m["storage.applies_per_commit"] = perCommit(float64(traced.cost.applies), traced.costed)
	m["storage.wal_bytes_per_commit"] = perCommit(float64(traced.cost.walBytes), traced.costed)
	m["storage.compactions"] = float64(traced.compactions)

	m["site.coord_mean_us"] = traced.timers[site.TimerCoordTxn].meanUs()
	m["site.part_mean_us"] = traced.timers[site.TimerPartTxn].meanUs()
	m["site.ctrl1_mean_us"] = traced.timers[site.TimerCtrl1Recovering].meanUs()
	m["site.ctrl2_mean_us"] = traced.timers[site.TimerCtrl2].meanUs()
	m["site.copiers_per_recovery"] = s.copiersPerRecovery
	for _, suffix := range abortReasons {
		m["site.abort_frac."+suffix] = 0
	}
	m["site.abort_frac.other"] = 0
	for reason, n := range traced.aborts {
		suffix, ok := abortReasons[reason]
		if !ok {
			suffix = "other"
		}
		m["site.abort_frac."+suffix] += float64(n) / float64(traced.attempted)
	}

	m["cluster.exec_overhead_us"] = s.overheadUs
	m["cluster.audit_ms"] = float64(traced.audit) / float64(time.Millisecond)
	m["cluster.settle_ms"] = float64(traced.settled) / float64(time.Millisecond)
	m["cluster.recover_ms"] = s.recoverMs
	m["cluster.heal_items_per_s"] = s.healItemsPerS
	m["workload.gen_late_p99_ms"] = s.lateP99Ms
	m["workload.gen_late_frac"] = s.lateFrac
	m["workload.closed_p99_ms"] = s.p99
	m["workload.open_p99_ms"] = s.openP99
	m["workload.read_p50_ms"] = s.readP50
	m["workload.window_spread"] = s.windowSpread

	// The sites' timers count one observation per timed event, so their
	// total over the run divided by what committed is the registry's
	// load per commit.
	var observes uint64
	for _, t := range traced.timers {
		observes += t.count
	}
	committed := traced.closed.committed + traced.single.committed + traced.open.committed + traced.cycleCommitted
	for name, v := range budget(budgetInputs{
		sites:             spec.Sites,
		concurrent:        spec.Concurrent > 1,
		wal:               spec.WAL,
		p50Us:             s.singleP50Us,
		writeShare:        s.writeShare,
		msgsPerCommit:     perCommit(float64(traced.singleCost.msgs), traced.singleCosted),
		appliesPerCommit:  perCommit(float64(traced.singleCost.applies), traced.singleCosted),
		getsPerCommit:     perCommit(float64(traced.singleCost.gets), traced.singleCosted),
		observesPerCommit: perCommit(float64(observes), committed),
		unit:              m,
	}) {
		m[name] = v
	}
	return m
}
