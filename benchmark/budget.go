package main

// budgetInputs are the per-commit counts of the single-client phase and
// the probes' unit costs the latency budget multiplies them with.
type budgetInputs struct {
	sites      int
	concurrent bool // sites take locks
	wal        bool // every applied write is framed into a log
	// p50Us is the single-client phase's median latency, the total the
	// budget accounts for.
	p50Us float64
	// writeShare is the share of commits with at least one write.
	writeShare float64
	// Counts per commit, read from outside: messages accepted by the
	// transport, store calls seen by the decorator, timer observations
	// in the sites' registries.
	msgsPerCommit, appliesPerCommit, getsPerCommit, observesPerCommit float64
	// unit holds the probes' results by metric name.
	unit map[string]float64
}

// budget splits the single-client median latency into one line per
// module: what the average commit asks of the module, times the module's
// unit cost as its probe measured it. The lines and budget.unexplained_us
// sum exactly to budget.txn_p50_us.
//
// Transport is charged for the round trips a commit waits for one after
// the other — the client's, then one fan-out per protocol round, the
// rounds read off the message count (a round is a request to and a reply
// from each of the other sites). The other modules are charged for all
// the work of a commit, including what participants do side by side, so
// on two processors unexplained_us can be negative where work overlapped;
// it is positive where a commit waited for something no probe covers —
// a sleeping processor being woken, the epoch timer, the group committer.
func budget(in budgetInputs) map[string]float64 {
	u := in.unit
	others := float64(in.sites - 1)
	rounds := 0.0
	if in.msgsPerCommit > 2 && others > 0 {
		rounds = (in.msgsPerCommit - 2) / (2 * others)
	}
	lines := map[string]float64{
		"msg":       in.msgsPerCommit * (u["msg.marshal_ns"] + u["msg.unmarshal_ns"]) / 1000,
		"transport": u["transport.mem_rtt_us"] + rounds*u["transport.fanout_us"],
		"storage":   in.appliesPerCommit*u["storage.apply_p50_us"] + in.getsPerCommit*u["storage.get_ns"]/1000,
		"core":      in.appliesPerCommit * u["core.faillock_maintain_ns"] / 1000,
		"metrics":   in.observesPerCommit * u["metrics.observe_ns"] / 1000,
		// One event at the managing site and one at the coordinator, and
		// a prepare and a commit event at each participant of a write.
		"trace":   (2 + in.writeShare*2*others) * u["trace.emit_ns"] / 1000,
		"lockmgr": 0,
		"wire":    0,
	}
	if in.concurrent {
		// The coordinator locks every transaction's sets, each
		// participant a writing transaction's.
		lines["lockmgr"] = (1 + in.writeShare*others) * u["lockmgr.acquire_release_ns"] / 1000
	}
	if in.wal {
		lines["wire"] = in.appliesPerCommit * u["wire.frame_write_ns"] / 1000
	}
	out := map[string]float64{"budget.txn_p50_us": in.p50Us}
	explained := 0.0
	for _, mod := range budgetModules {
		out["budget."+mod+"_us"] = lines[mod]
		explained += lines[mod]
	}
	out["budget.unexplained_us"] = in.p50Us - explained
	return out
}
