package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// rtSampler reads the runtime/metrics the benchmark reports. Reading
// reuses one sample slice, so it does not allocate.
type rtSampler struct{ s []metrics.Sample }

type rtSnap struct {
	allocs, bytes, heap      uint64
	gcCPU, totalCPU, idleCPU float64
}

func newRTSampler() *rtSampler {
	names := []string{
		"/gc/heap/allocs:objects",
		"/gc/heap/allocs:bytes",
		"/gc/heap/live:bytes",
		"/cpu/classes/gc/total:cpu-seconds",
		"/cpu/classes/total:cpu-seconds",
		"/cpu/classes/idle:cpu-seconds",
	}
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	return &rtSampler{s: s}
}

func (r *rtSampler) read() rtSnap {
	metrics.Read(r.s)
	return rtSnap{
		allocs:   r.s[0].Value.Uint64(),
		bytes:    r.s[1].Value.Uint64(),
		heap:     r.s[2].Value.Uint64(),
		gcCPU:    r.s[3].Value.Float64(),
		totalCPU: r.s[4].Value.Float64(),
		idleCPU:  r.s[5].Value.Float64(),
	}
}

// gcCPUFrac is the share of the CPU time the process used between a and b
// that went to garbage collection. The runtime publishes these totals at
// the end of each GC cycle, so the share is exact at cycle granularity.
func gcCPUFrac(a, b rtSnap) float64 {
	used := (b.totalCPU - b.idleCPU) - (a.totalCPU - a.idleCPU)
	if used <= 0 {
		return 0
	}
	return (b.gcCPU - a.gcCPU) / used
}

// opRunner is a closed-loop workload: one caller issues the next op when
// the previous one completes.
type opRunner interface {
	// do performs one op: the timed calls into the program.
	do(op int64, tr *tracer) error
	// check verifies the op's outputs. It is neither timed nor counted in
	// the op's allocations.
	check() error
}

// loopStats summarizes one closed-loop phase.
type loopStats struct {
	ops           int64
	lat           *hist  // ns per successful op
	allocs, bytes uint64 // allocated inside do
	heap          *hist  // live heap after each op, bytes
	elapsed       time.Duration
	gcFrac        float64
}

// closedLoop runs ops back to back for window (or until tr's span buffer
// fills), timing each op and bracketing it with allocation counters.
// Failed ops and checks count into rep.
func closedLoop(r opRunner, window time.Duration, tr *tracer, rep *report, firstOp int64) loopStats {
	rs := newRTSampler()
	st := loopStats{lat: newHist(), heap: newHist()}
	runtime.GC() // start every phase from a collected heap
	start := rs.read()
	t0 := time.Now()
	for op := firstOp; time.Since(t0) < window && !tr.full(); op++ {
		before := rs.read()
		s := time.Now()
		err := r.do(op, tr)
		d := time.Since(s)
		after := rs.read()
		st.allocs += after.allocs - before.allocs
		st.bytes += after.bytes - before.bytes
		st.heap.add(float64(after.heap))
		st.ops++
		rep.attempted++
		if err == nil {
			err = r.check()
		}
		if err != nil {
			rep.fail(1, err)
			continue
		}
		st.lat.add(float64(d))
	}
	st.elapsed = time.Since(t0)
	st.gcFrac = gcCPUFrac(start, rs.read())
	return st
}

// reportLoop records a closed-loop phase's end-to-end metrics.
func reportLoop(rep *report, st loopStats) {
	rep.set("ops_per_s", float64(st.ops)/st.elapsed.Seconds(), "1/s")
	rep.set("op_p50_us", st.lat.percentile(50)/1e3, "us")
	rep.set("op_p90_us", st.lat.percentile(90)/1e3, "us")
	rep.set("op_p99_us", st.lat.percentile(99)/1e3, "us")
	rep.set("op_samples", float64(st.lat.n), "count")
	if st.ops > 0 {
		rep.set("allocs_per_op", float64(st.allocs)/float64(st.ops), "count")
		rep.set("bytes_per_op", float64(st.bytes)/float64(st.ops), "B")
	}
	reportHeap(rep, st.heap)
	rep.set("runtime.gc_cpu_frac", st.gcFrac, "frac")
}

// reportHeap records the live heap the GC marked, sampled over a phase
// (bytes): its median, which is steady from run to run, and its peak,
// which depends on where the collections happened to fall.
func reportHeap(rep *report, h *hist) {
	rep.set("heap_live_mb", h.percentile(50)/(1<<20), "MB")
	rep.set("heap_peak_mb", h.percentile(100)/(1<<20), "MB")
}

// A run builds its workload's world at least setupMinReps times and for at
// least setupMinTime; setup_s is the median build time. Spreading the builds
// over a second or more keeps one short burst of host contention from
// setting the median.
const (
	setupMinReps = 11
	setupMinTime = 1500 * time.Millisecond
	setupMaxReps = 500
)

// setupMedian builds a world repeatedly, timing each build (which includes
// the world's first op, so lazy set-up is paid outside the measured
// window), each from a freshly collected heap. It keeps the last world,
// releases the others, and returns the median build time in seconds.
func setupMedian[T any](build func() (T, error), release func(T)) (T, float64, error) {
	var (
		w     T
		times []float64
		total time.Duration
	)
	for len(times) < setupMaxReps && (len(times) < setupMinReps || total < setupMinTime) {
		if len(times) > 0 && release != nil {
			release(w)
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if w, err = build(); err != nil {
			return w, 0, err
		}
		d := time.Since(t0)
		total += d
		times = append(times, d.Seconds())
	}
	return w, median(times), nil
}

// profilePhase runs fn under a CPU profile and allocation-profile
// snapshots and records each layer's sampled CPU and allocation shares.
func profilePhase(rep *report, fn func()) error {
	defaultRate := runtime.MemProfileRate
	runtime.MemProfileRate = memProfileRate
	defer func() { runtime.MemProfileRate = defaultRate }()
	before := takeMemSnapshot()
	cpu, err := startCPUProfile()
	if err != nil {
		return err
	}
	fn()
	cpuFrac, err := cpu.stop()
	if err != nil {
		return err
	}
	allocFrac := allocFractions(before, takeMemSnapshot(), memProfileRate)
	for _, l := range profiledLayers {
		rep.set(l+".cpu_self_frac", cpuFrac[l], "frac")
	}
	for _, l := range profiledLayers {
		rep.set(l+".alloc_frac", allocFrac[l], "frac")
	}
	return nil
}

// tracedPhases is how many equal parts a traced run splits its window
// into: an untraced baseline, a span-traced phase and a profiled phase.
// raise_churn adds one more part for its cost ladder.
const tracedPhases = 3

// finishTraced records what every traced run reports about its
// span-traced phase: the traced-vs-untraced op_p50_us difference (base
// and traced are the two phases' op_p50_us), the span counts, each span
// name's mean self time, and the span dump.
func finishTraced(cfg config, rep *report, base, traced float64, trs ...*tracer) error {
	rep.set("trace.untraced_op_p50_us", base, "us")
	rep.set("trace.traced_op_p50_us", traced, "us")
	rep.set("trace.overhead_us", traced-base, "us")
	var spans, dropped int64
	self := map[string]selfTime{}
	for _, tr := range trs {
		spans, dropped = spans+int64(len(tr.spans)), dropped+tr.dropped
		for name, agg := range selfTimes(tr.spans) {
			sum := self[name]
			self[name] = selfTime{sum.count + agg.count, sum.self + agg.self}
		}
	}
	rep.set("trace.spans", float64(spans), "count")
	rep.set("trace.dropped_spans", float64(dropped), "count")
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		agg := self[name]
		rep.set("span."+name+".self_us", float64(agg.self)/float64(agg.count)/1e3, "us")
	}
	return writeSpans(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed), trs...)
}
