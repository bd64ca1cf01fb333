package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"time"

	"minraid/internal/core"
	"minraid/internal/lockmgr"
	"minraid/internal/metrics"
	"minraid/internal/msg"
	"minraid/internal/site"
	"minraid/internal/trace"
	"minraid/internal/transport"
	"minraid/internal/wire"
)

// The microprobes time calls into each layer's exported functions from
// outside, single-threaded unless they say otherwise, on messages and
// operation sets built from the workload's own stream. Each is boxed to
// probeBox of wall time so the traced run stays inside its budget.

const (
	probeBox     = 120 * time.Millisecond
	probeBatches = 5
	probeTxns    = 512 // stream prefix the probes draw their inputs from
)

// perOp returns the median, over probeBatches batches, of the mean time of
// one call of fn in nanoseconds. The batch size is grown until a batch is
// long enough for the clock not to matter.
func perOp(fn func()) float64 {
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if d := time.Since(t0); d >= probeBox/(2*probeBatches) || n >= 1<<24 {
			break
		}
		n *= 2
	}
	var means []float64
	for b := 0; b < probeBatches; b++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		means = append(means, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return Median(means)
}

// allocsPer is the mean number of heap allocations of one call of fn.
func allocsPer(fn func()) float64 {
	const n = 2000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / n
}

// contended runs fn from GOMAXPROCS goroutines for probeBox and returns
// the wall nanoseconds per call.
func contended(fn func(g int)) float64 {
	procs := runtime.GOMAXPROCS(0)
	counts := make([]int, procs)
	deadline := time.Now().Add(probeBox)
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				for i := 0; i < 64; i++ {
					fn(g)
				}
				counts[g] += 64
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, c := range counts {
		total += c
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(total)
}

// probeInputs are the workload-shaped inputs the probes share.
type probeInputs struct {
	spec     Spec
	txns     [][]core.Op
	prepares []*msg.Envelope // one Prepare per writing transaction
	// bytesPerCommit is the encoded size of the messages one commit puts
	// on the wire under the two-phase pattern the program uses, averaged
	// over the stream prefix: request and result, and per participant a
	// prepare, its ack, a commit and its ack.
	bytesPerCommit float64
}

func newProbeInputs(spec Spec, stream *Stream) *probeInputs {
	in := &probeInputs{spec: spec}
	vec := core.NewSessionVector(spec.Sites).Records()
	var total int
	for seq := uint64(0); seq < probeTxns; seq++ {
		ops := stream.Next(seq)
		in.txns = append(in.txns, ops)
		id := core.TxnID(seq + 1)
		env := func(b msg.Body) *msg.Envelope {
			return &msg.Envelope{From: 0, To: 1, Seq: seq + 1, Trace: seq + 1, Body: b}
		}
		var reads, writes, versions []core.ItemVersion
		for _, o := range ops {
			if o.Kind == core.OpWrite {
				writes = append(writes, core.ItemVersion{Item: o.Item, Version: id, Value: o.Value})
				versions = append(versions, core.ItemVersion{Item: o.Item, Version: id})
			} else {
				reads = append(reads, core.ItemVersion{Item: o.Item, Version: id, Value: stream.value(seq, o.Item)})
			}
		}
		total += len(msg.Marshal(env(&msg.ClientTxn{Txn: id, Ops: ops})))
		total += len(msg.Marshal(env(&msg.TxnResult{Txn: id, Committed: true, Reads: reads})))
		if len(writes) == 0 {
			continue
		}
		prepare := env(&msg.Prepare{Txn: id, Vector: vec, Writes: writes})
		in.prepares = append(in.prepares, prepare)
		perParticipant := len(msg.Marshal(prepare)) +
			len(msg.Marshal(env(&msg.PrepareAck{Txn: id, OK: true}))) +
			len(msg.Marshal(env(&msg.Commit{Txn: id, Versions: versions}))) +
			len(msg.Marshal(env(&msg.CommitAck{Txn: id})))
		total += (spec.Sites - 1) * perParticipant
	}
	in.bytesPerCommit = float64(total) / probeTxns
	return in
}

// probes runs every microprobe and returns its metrics by name.
func probes(spec Spec, seed uint64) (map[string]float64, error) {
	stream := spec.stream(seed)
	in := newProbeInputs(spec, stream)
	out := map[string]float64{"msg.bytes_per_commit": in.bytesPerCommit}
	probeWire(in, out)
	probeMsg(in, out)
	probeLockmgr(in, out)
	probeCore(in, out)
	probeMetrics(out)
	i := uint64(0)
	out["workload.next_ns"] = perOp(func() { stream.Next(i); i++ })
	if err := probeTransport(spec, seed, out); err != nil {
		return nil, err
	}
	return out, nil
}

// probeWire frames a payload the size of one logged write.
func probeWire(in *probeInputs, out map[string]float64) {
	payload := make([]byte, valueLen+16)
	var buf bytes.Buffer
	write := func() {
		buf.Reset()
		if err := wire.WriteFrame(&buf, 2, payload); err != nil {
			panic(err)
		}
	}
	out["wire.frame_write_ns"] = perOp(write)
	write()
	frame := append([]byte(nil), buf.Bytes()...)
	var rd bytes.Reader
	read := func() {
		rd.Reset(frame)
		if _, _, err := wire.ReadFrame(&rd); err != nil {
			panic(err)
		}
	}
	out["wire.frame_read_ns"] = perOp(read)
	out["wire.allocs_per_frame"] = allocsPer(func() { write(); read() })
}

// probeMsg encodes and decodes the prepares of the stream's writing
// transactions, the message that carries the write payloads.
func probeMsg(in *probeInputs, out map[string]float64) {
	i := 0
	next := func() *msg.Envelope { i++; return in.prepares[i%len(in.prepares)] }
	out["msg.marshal_ns"] = perOp(func() { msg.Marshal(next()) })
	encoded := make([][]byte, len(in.prepares))
	for k, env := range in.prepares {
		encoded[k] = msg.Marshal(env)
	}
	unmarshal := func(buf []byte) {
		if _, err := msg.Unmarshal(buf); err != nil {
			panic(err)
		}
	}
	out["msg.unmarshal_ns"] = perOp(func() { i++; unmarshal(encoded[i%len(encoded)]) })
	out["msg.allocs_per_roundtrip"] = allocsPer(func() { unmarshal(msg.Marshal(next())) })
}

func probeLockmgr(in *probeInputs, out map[string]float64) {
	m := lockmgr.New(time.Second)
	defer m.Close()
	sets := make([][2][]core.ItemID, len(in.txns))
	for k, ops := range in.txns {
		sets[k] = [2][]core.ItemID{core.ReadSet(ops), core.WriteSet(ops)}
	}
	i := 0
	out["lockmgr.acquire_release_ns"] = perOp(func() {
		i++
		id := core.TxnID(i)
		s := sets[i%len(sets)]
		if err := m.AcquireAll(id, s[0], s[1]); err != nil {
			panic(err)
		}
		m.Release(id)
	})
	// Every processor's goroutine wants the same item exclusively: each
	// call is one grant handed from a releasing holder to a waiter.
	ids := make([]core.TxnID, runtime.GOMAXPROCS(0))
	out["lockmgr.handoff_us"] = contended(func(g int) {
		ids[g] += core.TxnID(len(ids))
		id := ids[g] + core.TxnID(g) + 1<<40
		if err := m.Acquire(id, 0, lockmgr.Exclusive); err != nil {
			panic(err)
		}
		m.Release(id)
	}) / 1000
}

func probeCore(in *probeInputs, out map[string]float64) {
	spec := in.spec
	table := core.NewFailLockTable(spec.Items, spec.Sites)
	vec := core.NewSessionVector(spec.Sites)
	vec.MarkDown(1)
	var items []core.ItemID
	for _, ops := range in.txns {
		items = append(items, core.WriteSet(ops)...)
	}
	i := 0
	out["core.faillock_maintain_ns"] = perOp(func() { i++; table.Maintain(items[i%len(items)], vec) })
	out["core.faillock_snapshot_us"] = perOp(func() {
		if err := table.Install(table.Snapshot()); err != nil {
			panic(err)
		}
	}) / 1000
	other := core.NewSessionVector(spec.Sites)
	other.MarkUp(1, 2)
	out["core.vector_merge_ns"] = perOp(func() { v := vec.Clone(); v.Merge(other) })
}

// probeMetrics observes under the site's real timer names.
func probeMetrics(out map[string]float64) {
	reg := metrics.NewRegistry()
	out["metrics.observe_ns"] = perOp(func() { reg.Observe(site.TimerCoordTxn, time.Microsecond) })
	names := []string{site.TimerCoordTxn, site.TimerPartTxn}
	out["metrics.observe_contended_ns"] = contended(func(g int) { reg.Observe(names[g%2], time.Microsecond) })
	rec := trace.NewRecorder(0)
	start := time.Now()
	out["trace.emit_ns"] = perOp(func() { rec.Emit(1, 0, trace.PhaseCoord, "probe", start) })
}

// probeTransport builds the workload's wire — the memory transport and, on
// a WAN, the compiled link matrix around it — and puts an
// echoing endpoint on every site but site 0. It times the client's round
// trip, a call from the managing site (whose links a WAN leaves alone) to
// site 1, and a protocol round, a multicast from site 0 to all the others.
func probeTransport(spec Spec, seed uint64, out map[string]float64) error {
	mem := transport.NewMemory(transport.MemoryConfig{Sites: spec.Sites})
	var network transport.Network = mem
	chaos, err := spec.chaos(seed)
	if err != nil {
		return err
	}
	if chaos != nil {
		network = transport.NewChaos(mem, *chaos)
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	defer network.Close()

	serve := func(id core.SiteID, handle func(*transport.Caller, *msg.Envelope)) (*transport.Caller, error) {
		ep, err := network.Endpoint(id)
		if err != nil {
			return nil, err
		}
		caller := transport.NewCaller(ep, 5*time.Second)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				env, ok := ep.Recv()
				if !ok {
					return
				}
				handle(caller, env)
			}
		}()
		return caller, nil
	}
	var others []core.SiteID
	for id := 1; id < spec.Sites; id++ {
		others = append(others, core.SiteID(id))
		_, err := serve(core.SiteID(id), func(c *transport.Caller, env *msg.Envelope) {
			_ = c.Reply(env, &msg.CommitAck{}) // a failed reply shows as the caller's timeout
		})
		if err != nil {
			return err
		}
	}
	deliver := func(c *transport.Caller, env *msg.Envelope) { c.Deliver(env) }
	client, err := serve(core.ManagingSite, deliver)
	if err != nil {
		return err
	}
	origin, err := serve(0, deliver)
	if err != nil {
		return err
	}

	var callErr error
	out["transport.mem_rtt_us"] = perOp(func() {
		if _, err := client.Call(1, &msg.Commit{}); err != nil {
			callErr = err
		}
	}) / 1000
	calls := transport.Outcalls(others, func(core.SiteID) msg.Body { return &msg.Commit{} })
	out["transport.fanout_us"] = perOp(func() {
		for _, r := range origin.MulticastT(0, calls) {
			if r.Err != nil {
				callErr = r.Err
			}
		}
	}) / 1000
	if callErr != nil {
		return fmt.Errorf("transport probe: %w", callErr)
	}
	return nil
}
