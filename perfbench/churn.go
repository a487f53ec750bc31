package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"spin/internal/codegen"
	"spin/internal/dispatch"
	"spin/internal/fault"
	"spin/internal/journal"
	"spin/internal/kernel"
	"spin/internal/rtti"
	"spin/internal/shard"
)

// The raise_churn workload: the production control plane of the ROADMAP
// ladder. An unmetered machine boots with two shards, a journal sampling
// 1 raise in 1,024 (on a sink that counts bytes and keeps none, see
// countSink), and an enforcing fault policy.
//
//   - The reader (the calling goroutine) raises in closed loop, in rounds
//     made of one block per shape: bypass arity 0, the Table 3 syscall
//     population (3 handlers, 2 Fn guards), 4 inline GlobalEq guards,
//     RaiseBatch of 64 frames on the inline4 event, and one fan-in event
//     with 1,024 ArgEq bindings raised with seeded keys — hits from a
//     stable set that churn never touches, misses from keys never
//     installed.
//   - The writer goroutine installs a fresh ArgEq binding on the fan-in
//     event and uninstalls the oldest churned one, open loop at a fixed
//     rate.
//
// The op is one raise; a RaiseBatch frame counts as one raise, since the
// batch delivers each frame as its own raise. allocs_per_op and
// bytes_per_op count per writer operation instead (see churnPhase.report).
// There is no vtime or sched work here.
//
// The mix. No source fixes how often each shape is raised, so the blocks
// are sized to take the same time: measured on the parent commit (2-vCPU
// host, go1.24), a bypass raise cost about 50 ns, a syscall3 raise 160
// ns, an inline4 raise 220 ns, a batch frame 170 ns and a fan-in raise
// 10.8 µs, so each block below takes about 85 µs there. Each shape then
// weighs the same in ops_per_s and op_p90_us: one shape getting k times
// slower stretches the round by (k-1)/5, so ops_per_s falls to 5/(4+k)
// of its value; one shape alone must slow by more than 2.7 times to move
// ops_per_s past a 0.25 bound. Half the fan-in raises hit and half miss;
// that split is an arbitrary choice. It weighs little on the parent
// commit, where a hit and a miss cost the same to within 3%; the traced
// run prints both (dispatch.raise_ns.demux_hit and demux_miss), so a
// change that makes them differ, such as a guard index, shows there.

const (
	churnStable     = 512     // fan-in bindings whose keys the reader hits
	churnRing       = 512     // fan-in bindings the writer churns
	churnSchedule   = 1 << 16 // seeded fan-in keys, cycled
	churnHitPercent = 50      // share of fan-in raises that hit
	churnBatch      = 64      // frames per RaiseBatch
	churnRate       = 100     // writer operations per second
	churnKeyBase    = 1 << 48 // churned keys count up from here
	churnHeapEvery  = 16      // rounds between heap samples
	churnEpoch      = 32      // rounds one op-latency sample averages

	// Raises per block, sized as described above.
	churnBypassBlock  = 1700
	churnSyscallBlock = 540
	churnInlineBlock  = 390
	churnBatchBlock   = 8 // batches, 512 frames
	churnDemuxBlock   = 8
)

// churnSmallShapes are the small-population block shapes, in round order.
var churnSmallShapes = []string{"bypass", "syscall3", "inline4", "batch64_frame"}

var churnModule = rtti.NewModule("PerfbenchChurn")

func wordSig(n int) rtti.Signature {
	args := make([]rtti.Type, n)
	for i := range args {
		args[i] = rtti.Word
	}
	return rtti.Sig(nil, args...)
}

func churnProc(name string, n int) *rtti.Proc {
	return &rtti.Proc{Name: name, Module: churnModule, Sig: wordSig(n)}
}

func churnGuardProc(name string, n int) *rtti.Proc {
	return &rtti.Proc{Name: name, Module: churnModule, Functional: true,
		Sig: rtti.Sig(rtti.Bool, wordSig(n).Args...)}
}

// churnInputs are the seeded inputs: the stable and miss key sets and the
// fan-in raise schedule, pre-boxed so raising allocates nothing in the
// benchmark (boxing a uint64 above 255 allocates).
type churnInputs struct {
	stableKeys []uint64
	missKeys   []uint64
	schedule   []any   // boxed fan-in keys, in raise order
	stableIdx  []int32 // index into stableKeys per schedule entry, -1 for a miss
}

func newChurnInputs(seed uint64) churnInputs {
	rng := rand.New(rand.NewPCG(seed, 0x636875726e)) // "churn"
	seen := map[uint64]bool{}
	draw := func(n int) []uint64 {
		out := make([]uint64, 0, n)
		for len(out) < n {
			k := 256 + rng.Uint64N(churnKeyBase-256)
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
		return out
	}
	in := churnInputs{stableKeys: draw(churnStable), missKeys: draw(churnStable)}
	in.schedule = make([]any, churnSchedule)
	in.stableIdx = make([]int32, churnSchedule)
	for i := range in.schedule {
		if rng.IntN(100) < churnHitPercent {
			j := rng.IntN(churnStable)
			in.schedule[i], in.stableIdx[i] = in.stableKeys[j], int32(j)
		} else {
			in.schedule[i], in.stableIdx[i] = in.missKeys[rng.IntN(churnStable)], -1
		}
	}
	return in
}

// countSink is the journal's sink. It counts the bytes and seals it is
// handed and keeps no bytes, so the live heap does not grow with the
// number of raises sampled (an in-memory sink that kept them would make a
// faster raise path read as a larger heap).
type countSink struct{ bytes, seals atomic.Int64 }

func (s *countSink) Append(p []byte) error { s.bytes.Add(int64(len(p))); return nil }
func (s *countSink) Seal() error           { s.seals.Add(1); return nil }
func (s *countSink) Close() error          { return nil }

func newChurnJournal(sink journal.Sink) *journal.Journal {
	return journal.New(journal.Config{Sink: sink, SampleRaises: 1024})
}

// churnWorld is the booted machine, its events, and the reader's tallies.
type churnWorld struct {
	in      churnInputs
	m       *kernel.Machine
	jrnl    *journal.Journal
	sink    *countSink
	bypass  *shard.Event
	syscall *shard.Event
	inline4 *shard.Event
	fanin   *shard.Event

	stable []*shard.Binding
	ring   []*shard.Binding // churned bindings, oldest first
	next   uint64           // next churned key offset

	sysArgs   [2]any
	inlineArg any
	batch     []any

	// Reader tallies, checked against the program's counters at the end.
	pos        int
	hits       []int64 // per stable binding
	misses     int64
	missFired  atomic.Int64 // default-handler firings
	churnFired atomic.Int64 // churned bindings must never fire
}

// faninName returns an event name the router places on shard 0, the
// shard that carries the journal.
func faninName(r *shard.Router) string {
	for i := 0; ; i++ {
		name := fmt.Sprintf("Churn.Fanin%d", i)
		if r.Owner(name) == 0 {
			return name
		}
	}
}

func newChurnWorld(in churnInputs) (*churnWorld, error) {
	w := &churnWorld{in: in, hits: make([]int64, churnStable)}
	w.sink = &countSink{}
	w.jrnl = newChurnJournal(w.sink)
	pol := fault.DefaultPolicy()
	var err error
	if w.m, err = kernel.Boot(kernel.Config{Name: "churn", Shards: 2, Journal: w.jrnl, FaultPolicy: &pol}); err != nil {
		w.jrnl.Close()
		return nil, err
	}
	if err := w.define(); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

func (w *churnWorld) define() error {
	r := w.m.Router
	nop := func(any, []any) any { return nil }
	var err error
	if w.bypass, err = r.DefineEvent("Churn.Bypass", wordSig(0),
		dispatch.WithIntrinsic(dispatch.Handler{Proc: churnProc("Churn.Bypass", 0), Fn: nop})); err != nil {
		return err
	}

	// The Table 3 MachineTrap.Syscall population: an admitting and a
	// rejecting out-of-line guard plus an unguarded tracer.
	if w.syscall, err = r.DefineEvent("Churn.Syscall", wordSig(2)); err != nil {
		return err
	}
	admit := dispatch.Guard{Proc: churnGuardProc("Churn.Admit", 2), Fn: func(any, []any) bool { return true }}
	reject := dispatch.Guard{Proc: churnGuardProc("Churn.Reject", 2), Fn: func(any, []any) bool { return false }}
	sysH := dispatch.Handler{Proc: churnProc("Churn.Sys", 2), Fn: nop}
	for _, opts := range [][]dispatch.InstallOption{{dispatch.WithGuard(admit)}, {dispatch.WithGuard(reject)}, nil} {
		if _, err := w.syscall.Install(sysH, opts...); err != nil {
			return err
		}
	}

	if w.inline4, err = r.DefineEvent("Churn.Inline4", wordSig(1)); err != nil {
		return err
	}
	var cell atomic.Uint64
	for i := 0; i < 4; i++ {
		if _, err := w.inline4.Install(dispatch.Handler{Proc: churnProc("Churn.Inline", 1), Inline: codegen.Nop()},
			dispatch.WithGuard(dispatch.Guard{Pred: codegen.GlobalEq(&cell, 0)})); err != nil {
			return err
		}
	}

	if w.fanin, err = r.DefineEvent(faninName(r), wordSig(1)); err != nil {
		return err
	}
	if err := w.fanin.SetDefaultHandler(dispatch.Handler{Proc: churnProc("Churn.Miss", 1),
		Fn: func(any, []any) any { w.missFired.Add(1); return nil }}); err != nil {
		return err
	}
	for _, k := range w.in.stableKeys {
		b, err := w.fanin.Install(dispatch.Handler{Proc: churnProc("Churn.Stable", 1), Fn: nop},
			dispatch.WithGuard(dispatch.Guard{Pred: codegen.ArgEq(0, k)}))
		if err != nil {
			return err
		}
		w.stable = append(w.stable, b)
	}
	for i := 0; i < churnRing; i++ {
		b, err := w.installChurned()
		if err != nil {
			return err
		}
		w.ring = append(w.ring, b)
	}

	w.sysArgs = [2]any{uint64(1 << 20), uint64(1 << 21)}
	w.inlineArg = uint64(1 << 22)
	w.batch = make([]any, churnBatch)
	for i := range w.batch {
		w.batch[i] = uint64(1<<23 + i)
	}
	return nil
}

// installChurned installs the next fresh churned binding.
func (w *churnWorld) installChurned() (*shard.Binding, error) {
	k := churnKeyBase + w.next
	w.next++
	return w.fanin.Install(dispatch.Handler{Proc: churnProc("Churn.Churned", 1),
		Fn: func(any, []any) any { w.churnFired.Add(1); return nil }},
		dispatch.WithGuard(dispatch.Guard{Pred: codegen.ArgEq(0, k)}))
}

func (w *churnWorld) close() { w.jrnl.Close() }

// churnRound is one round's block timings, ns per raise per shape.
type churnRound struct {
	shape [4]float64 // churnSmallShapes order
	demux float64
	op    float64 // the whole round, ns per raise

	// Fan-in raises timed one by one, split into hits and misses.
	hitNS, missNS int64
	hitN          int
}

// raisesPerRound counts the raises (batch frames included) in one round.
const raisesPerRound = churnBypassBlock + churnSyscallBlock + churnInlineBlock +
	churnBatchBlock*churnBatch + churnDemuxBlock

// round raises one block of every shape. Raise errors count as failures.
func (w *churnWorld) round(op int64, tr *tracer, rep *report) churnRound {
	var rd churnRound
	root := tr.begin("churn.round", -1, op)
	var failed int64
	t0 := nowNS()
	sp := tr.begin("shard.Event.Raise0", root, op)
	for i := 0; i < churnBypassBlock; i++ {
		if _, err := w.bypass.Raise0(); err != nil {
			failed++
		}
	}
	tr.end(sp)
	t1 := nowNS()
	sp = tr.begin("shard.Event.Raise2", root, op)
	for i := 0; i < churnSyscallBlock; i++ {
		if _, err := w.syscall.Raise2(w.sysArgs[0], w.sysArgs[1]); err != nil {
			failed++
		}
	}
	tr.end(sp)
	t2 := nowNS()
	sp = tr.begin("shard.Event.Raise1", root, op)
	for i := 0; i < churnInlineBlock; i++ {
		if _, err := w.inline4.Raise1(w.inlineArg); err != nil {
			failed++
		}
	}
	tr.end(sp)
	t3 := nowNS()
	sp = tr.begin("shard.Event.RaiseBatch1", root, op)
	for i := 0; i < churnBatchBlock; i++ {
		out := w.inline4.RaiseBatch1(w.batch)
		if out.Raised != churnBatch || out.Fired != 4*churnBatch {
			failed += churnBatch
		}
	}
	tr.end(sp)
	t4 := nowNS()
	sp = tr.begin("shard.Event.Raise1.fanin", root, op)
	for i := 0; i < churnDemuxBlock; i++ {
		s := nowNS()
		if _, err := w.fanin.Raise1(w.in.schedule[w.pos]); err != nil {
			failed++
		}
		d := nowNS() - s
		if j := w.in.stableIdx[w.pos]; j >= 0 {
			w.hits[j]++
			rd.hitNS += d
			rd.hitN++
		} else {
			w.misses++
			rd.missNS += d
		}
		if w.pos++; w.pos == churnSchedule {
			w.pos = 0
		}
	}
	tr.end(sp)
	t5 := nowNS()
	tr.end(root)
	rep.attempted += raisesPerRound
	if failed > 0 {
		rep.fail(failed, fmt.Errorf("raise_churn: %d raises failed in round %d", failed, op))
	}
	rd.shape = [4]float64{
		float64(t1-t0) / churnBypassBlock, float64(t2-t1) / churnSyscallBlock,
		float64(t3-t2) / churnInlineBlock, float64(t4-t3) / (churnBatchBlock * churnBatch),
	}
	rd.demux = float64(t5-t4) / churnDemuxBlock
	rd.op = float64(t5-t0) / raisesPerRound
	return rd
}

// writerStats are the open-loop writer's samples, in ns.
type writerStats struct {
	late, install, installCall, uninstall *hist
}

// writer installs and uninstalls at churnRate until stop is set. Each op
// is timed from its due time; late is how far behind schedule it started.
func (w *churnWorld) writer(stop *atomic.Bool, tr *tracer, rep *writerReport) {
	period := time.Second / churnRate
	start := nowNS()
	for i := int64(0); !stop.Load(); i++ {
		due := start + i*int64(period)
		if d := due - nowNS(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		began := nowNS()
		rep.st.late.add(float64(began - due))
		rep.ops++
		sp := tr.begin("shard.Event.Install", -1, i)
		b, err := w.installChurned()
		tr.end(sp)
		installed := nowNS()
		rep.attempted++
		if err != nil {
			rep.errs = append(rep.errs, err)
			continue
		}
		rep.st.install.add(float64(installed - due))
		rep.st.installCall.add(float64(installed - began))
		oldest := w.ring[0]
		w.ring = append(w.ring[1:], b)
		sp = tr.begin("shard.Event.Uninstall", -1, i)
		err = w.fanin.Uninstall(oldest)
		tr.end(sp)
		rep.attempted++
		if err != nil {
			rep.errs = append(rep.errs, err)
			continue
		}
		rep.st.uninstall.add(float64(nowNS() - installed))
	}
}

// writerReport is what the writer goroutine hands back after it exits.
type writerReport struct {
	st        writerStats
	ops       int64 // writer operations begun
	attempted int64
	errs      []error
}

// churnPhase is one measured phase of the reader and writer together. Its
// samples go into fixed-size histograms (ns, or bytes for heap), so the
// phase's own bookkeeping does not grow the live heap it reports.
type churnPhase struct {
	rounds  int64
	op      *hist    // ns per raise over each run of churnEpoch rounds
	shapes  [4]*hist // ns per raise per small-shape block, churnSmallShapes order
	fast    *hist    // mean of a round's four small-shape figures
	demux   *hist    // ns per fan-in raise per block
	heap    *hist    // live heap every churnHeapEvery rounds
	hitNS   [2]int64 // fan-in time spent on misses [0] and hits [1]
	hitN    [2]int64 // fan-in misses [0] and hits [1]
	epochNS float64  // the running epoch's ns per raise, summed over rounds
	writer  writerReport
	raises  int64
	elapsed time.Duration
	allocs  uint64
	bytes   uint64
	gcFrac  float64
}

func newChurnPhase() *churnPhase {
	ph := &churnPhase{op: newHist(), fast: newHist(), demux: newHist(), heap: newHist()}
	for i := range ph.shapes {
		ph.shapes[i] = newHist()
	}
	ph.writer.st = writerStats{late: newHist(), install: newHist(), installCall: newHist(), uninstall: newHist()}
	return ph
}

// add records one round. An op-latency sample is the mean ns per raise
// over churnEpoch rounds (about 15 ms of raising), not one raise: a
// round's fan-in block swings between two modes with the host's memory
// contention, and averaging over an epoch keeps the samples from
// splitting between them. So op_p90_us on raise_churn is the p90 of
// epoch means.
func (ph *churnPhase) add(rd churnRound) {
	ph.rounds++
	var small float64
	for i, v := range rd.shape {
		ph.shapes[i].add(v)
		small += v
	}
	ph.fast.add(small / float64(len(rd.shape)))
	ph.demux.add(rd.demux)
	ph.hitNS[0], ph.hitNS[1] = ph.hitNS[0]+rd.missNS, ph.hitNS[1]+rd.hitNS
	ph.hitN[0], ph.hitN[1] = ph.hitN[0]+int64(churnDemuxBlock-rd.hitN), ph.hitN[1]+int64(rd.hitN)
	if ph.epochNS += rd.op; ph.rounds%churnEpoch == 0 {
		ph.op.add(ph.epochNS / churnEpoch)
		ph.epochNS = 0
	}
}

// measure runs the reader for window beside the writer, then stops the
// writer and waits for it.
func (w *churnWorld) measure(window time.Duration, trR, trW *tracer, rep *report, firstOp int64) *churnPhase {
	rs := newRTSampler()
	ph := newChurnPhase()
	var stop atomic.Bool
	var wg sync.WaitGroup
	runtime.GC() // start every phase from a collected heap
	start := rs.read()
	t0 := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.writer(&stop, trW, &ph.writer)
	}()
	for op := firstOp; time.Since(t0) < window && !trR.full(); op++ {
		ph.add(w.round(op, trR, rep))
		if ph.rounds%churnHeapEvery == 0 {
			ph.heap.add(float64(rs.read().heap))
		}
	}
	ph.elapsed = time.Since(t0)
	stop.Store(true)
	wg.Wait()
	end := rs.read()
	ph.raises = ph.rounds * raisesPerRound
	ph.allocs, ph.bytes = end.allocs-start.allocs, end.bytes-start.bytes
	ph.heap.add(float64(end.heap))
	ph.gcFrac = gcCPUFrac(start, end)
	rep.attempted += ph.writer.attempted
	for _, err := range ph.writer.errs {
		rep.fail(1, fmt.Errorf("raise_churn: writer: %w", err))
	}
	return ph
}

// report records a phase's end-to-end and layer metrics.
func (ph *churnPhase) report(rep *report) {
	rep.set("ops_per_s", float64(ph.raises)/ph.elapsed.Seconds(), "1/s")
	rep.set("op_p50_us", ph.op.percentile(50)/1e3, "us")
	rep.set("op_p90_us", ph.op.percentile(90)/1e3, "us")
	rep.set("op_samples", float64(ph.op.n), "count")
	// Raises allocate nothing, so the phase's allocations are the control
	// plane's: they are counted per writer operation (an install and an
	// uninstall), whose number the fixed rate sets, not per raise, whose
	// number swings with the host's speed. A raise path that started to
	// allocate would add its allocations times the raises per writer
	// operation (thousands).
	wops := float64(max(ph.writer.ops, 1))
	rep.set("allocs_per_op", float64(ph.allocs)/wops, "count")
	rep.set("bytes_per_op", float64(ph.bytes)/wops, "B")
	reportHeap(rep, ph.heap)
	rep.set("fast_raise_ns", ph.fast.percentile(50), "ns")
	rep.set("demux_raise_ns", ph.demux.percentile(50), "ns")
	st := ph.writer.st
	rep.set("install_p50_us", st.install.percentile(50)/1e3, "us")
	rep.set("install_p90_us", st.install.percentile(90)/1e3, "us")
	rep.set("runtime.gc_cpu_frac", ph.gcFrac, "frac")
	for i, name := range churnSmallShapes {
		rep.set("dispatch.raise_ns."+name, ph.shapes[i].percentile(50), "ns")
	}
	rep.set("dispatch.raise_ns.demux", ph.demux.percentile(50), "ns")
	rep.set("dispatch.raise_ns.demux_hit", float64(ph.hitNS[1])/float64(max(ph.hitN[1], 1)), "ns")
	rep.set("dispatch.raise_ns.demux_miss", float64(ph.hitNS[0])/float64(max(ph.hitN[0], 1)), "ns")
	rep.set("dispatch.install_us.p50", st.installCall.percentile(50)/1e3, "us")
	rep.set("dispatch.install_us.p90", st.installCall.percentile(90)/1e3, "us")
	rep.set("dispatch.uninstall_us.p50", st.uninstall.percentile(50)/1e3, "us")
	rep.set("dispatch.uninstall_us.p90", st.uninstall.percentile(90)/1e3, "us")
	rep.set("churn.writer_ops", float64(ph.writer.ops), "count")
	rep.set("churn.late_p50_us", st.late.percentile(50)/1e3, "us")
	rep.set("churn.late_p99_us", st.late.percentile(99)/1e3, "us")
}

// check verifies the run's outputs once every phase is done: the stable
// bindings fired exactly as often as the reader hit them, misses reached
// only the default handler, churned keys never fired, the journal's
// ledger balances after Close, and the fault ledgers are empty.
func (w *churnWorld) check(rep *report) error {
	var errs []error
	for i, b := range w.stable {
		if got := b.Fired(); got != w.hits[i] {
			errs = append(errs, fmt.Errorf("stable binding %d fired %d times, reader hit it %d times", i, got, w.hits[i]))
			break
		}
	}
	if got := w.missFired.Load(); got != w.misses {
		errs = append(errs, fmt.Errorf("default handler fired %d times for %d misses", got, w.misses))
	}
	if got := w.churnFired.Load(); got != 0 {
		errs = append(errs, fmt.Errorf("churned bindings fired %d times", got))
	}
	if err := w.jrnl.Close(); err != nil {
		errs = append(errs, fmt.Errorf("journal close: %w", err))
	}
	js := w.jrnl.Stats()
	if b, n := w.sink.bytes.Load(), w.sink.seals.Load(); b != js.Bytes || n != js.Batches || n == 0 {
		errs = append(errs, fmt.Errorf("sink got %d bytes in %d seals, journal sealed %d bytes in %d batches",
			b, n, js.Bytes, js.Batches))
	}
	rep.set("journal.records", float64(js.Records), "count")
	rep.set("journal.batches", float64(js.Batches), "count")
	rep.set("journal.dropped_raises", float64(js.DroppedRaises), "count")
	// Submitted counts the records the journal accepted; a shed raise
	// sample is counted in DroppedRaises instead. After Close every
	// accepted record is sealed.
	if js.Submitted != js.Records {
		errs = append(errs, fmt.Errorf("journal submitted %d records, sealed %d (dropped %d)",
			js.Submitted, js.Records, js.DroppedRaises))
	}
	var faults int
	for i := 0; i < w.m.Router.Shards(); i++ {
		faults += w.m.Router.Shard(i).Dispatcher().FaultLedger().Total()
	}
	rep.set("fault.faults", float64(faults), "count")
	if faults != 0 {
		errs = append(errs, fmt.Errorf("fault ledger holds %d faults", faults))
	}
	return errors.Join(errs...)
}

func runRaiseChurn(cfg config, rep *report) error {
	if err := reportBoot(rep, func() error {
		j := newChurnJournal(&countSink{})
		defer j.Close()
		pol := fault.DefaultPolicy()
		_, err := kernel.Boot(kernel.Config{Name: "churn", Shards: 2, Journal: j, FaultPolicy: &pol})
		return err
	}); err != nil {
		return err
	}
	in := newChurnInputs(cfg.seed)
	w, setup, err := setupMedian(func() (*churnWorld, error) {
		w, err := newChurnWorld(in)
		if err != nil {
			return nil, err
		}
		w.round(0, nil, rep)
		return w, nil
	}, func(w *churnWorld) { w.close() })
	if err != nil {
		return err
	}
	rep.set("setup_s", setup, "s")
	rep.setZero(x11Counts)

	if !cfg.trace {
		ph := w.measure(cfg.window(), nil, nil, rep, 1)
		ph.report(rep)
	} else if err := w.traced(cfg, rep); err != nil {
		return err
	}
	rep.attempted++
	if err := w.check(rep); err != nil {
		rep.fail(1, fmt.Errorf("raise_churn: %w", err))
	}
	return nil
}

// traced runs the traced raise_churn phases: the three every traced run
// has, then the cost ladder.
func (w *churnWorld) traced(cfg config, rep *report) error {
	phase := cfg.window() / (tracedPhases + 1)
	base := w.measure(phase, nil, nil, rep, 1)
	base.report(rep)
	first := base.rounds + 1
	trR, trW := newTracer(time.Now(), spanCapacity), newTracer(time.Now(), 1<<14)
	tp := w.measure(phase, trR, trW, rep, first)
	first += tp.rounds
	if err := finishTraced(cfg, rep, base.op.percentile(50)/1e3, tp.op.percentile(50)/1e3, trR, trW); err != nil {
		return err
	}
	if err := profilePhase(rep, func() { w.measure(phase, nil, nil, rep, first) }); err != nil {
		return err
	}
	return w.ladder(phase, rep)
}

// ladder times one shape — an arity-1 event whose only handler is its
// intrinsic — through each entry point reachable from outside: a direct
// Go call of the handler, dispatch.Event, shard.Event, and RaiseBatch per
// frame. Each rung is the median over blocks of its ns per raise.
const ladderBlock = 512

func (w *churnWorld) ladder(window time.Duration, rep *report) error {
	var calls atomic.Int64
	fn := func(any, []any) any { calls.Add(1); return nil }
	ev, err := w.m.Router.DefineEvent("Churn.Ladder", wordSig(1),
		dispatch.WithIntrinsic(dispatch.Handler{Proc: churnProc("Churn.Ladder", 1), Fn: fn}))
	if err != nil {
		return err
	}
	direct := dispatch.HandlerFn(fn)
	under := ev.Underlying()
	arg := w.inlineArg
	args := []any{arg}
	rungs := []struct {
		name string
		run  func() error
	}{
		{"direct", func() error { direct(nil, args); return nil }},
		{"dispatch", func() error { _, err := under.Raise1(arg); return err }},
		{"shard", func() error { _, err := ev.Raise1(arg); return err }},
	}
	samples := make([][]float64, len(rungs)+1)
	var want int64
	deadline := time.Now().Add(window)
	for time.Now().Before(deadline) {
		for i, r := range rungs {
			t0 := nowNS()
			for k := 0; k < ladderBlock; k++ {
				if err := r.run(); err != nil {
					return fmt.Errorf("ladder %s: %w", r.name, err)
				}
			}
			samples[i] = append(samples[i], float64(nowNS()-t0)/ladderBlock)
		}
		t0 := nowNS()
		for k := 0; k < ladderBlock/churnBatch; k++ {
			if out := ev.RaiseBatch1(w.batch); out.Raised != churnBatch {
				return fmt.Errorf("ladder batch: %d of %d frames raised", out.Raised, churnBatch)
			}
		}
		samples[len(rungs)] = append(samples[len(rungs)], float64(nowNS()-t0)/ladderBlock)
		want += 4 * ladderBlock
	}
	if got := calls.Load(); got != want {
		return fmt.Errorf("ladder: handler ran %d times, want %d", got, want)
	}
	names := []string{"direct", "dispatch", "shard", "batch_frame"}
	meds := make([]float64, len(names))
	for i, n := range names {
		meds[i] = median(samples[i])
		rep.set("ladder."+n+"_ns", meds[i], "ns")
	}
	rep.set("shard.route_ns", meds[2]-meds[1], "ns")
	return nil
}
