// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload on the unchanged program, composed only from the program's
// public package APIs, checks the workload's outputs, and prints every
// metric by name and unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload preview --seed 1 --seconds 10 --trace 0
//
// Workloads:
//
//	preview      x11.Run back to back, one caller (Table 3)
//	udp_fanin    closed-loop UDP echo between two metered machines with
//	             512 inactive port guards each (Table 2)
//	raise_churn  routed raises on a 2-shard unmetered machine with a
//	             journal and an enforcing fault policy, beside an
//	             open-loop install/uninstall writer
//
// With --trace 0 the JSON carries the end-to-end metrics; with --trace 1 a
// separate run reports per-layer metrics from spans recorded around the
// benchmark's calls into each layer, a sampled CPU/allocation profile,
// and the tracing overhead. perfbench/run.py builds and runs it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(cfg config, r *report) error{
	"preview":     runPreview,
	"udp_fanin":   runUDPFanin,
	"raise_churn": runRaiseChurn,
}

// endToEndMetrics are the metrics an untraced run puts in its JSON line,
// with units; the op is a preview, an echo round trip, or a raise. The
// median op latency is printed but left out: on raise_churn it did not
// repeat within a tenth from run to run, because the fan-in raise's cost
// swings between two modes with the host's memory contention and the
// median falls between them, while p90 sits inside the slow mode.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p90_us", "us"},
	{"allocs_per_op", "count"},
	{"bytes_per_op", "B"},
	{"heap_live_mb", "MB"},
}

// The journal and x11 counts are per-layer metrics of one workload each;
// the others report them as zero, since they run no journal or no preview.
var (
	journalCounts = []string{"journal.records", "journal.batches", "journal.dropped_raises"}
	x11Counts     = func() []string {
		var names []string
		for _, ev := range previewEvents {
			names = append(names, "x11.raised_per_op."+ev)
		}
		return names
	}()
)

// perLayerMetrics are the metrics a traced run puts in its JSON line: the
// ones every workload measures. Workload-specific layer metrics are
// printed on the lines above it.
var perLayerMetrics = func() []metricDef {
	defs := []metricDef{
		{"kernel.boot_ms", "ms"},
		{"runtime.gc_cpu_frac", "frac"},
		{"trace.overhead_us", "us"},
	}
	for _, n := range append(journalCounts, x11Counts...) {
		defs = append(defs, metricDef{n, "count"})
	}
	for _, l := range profiledLayers {
		defs = append(defs, metricDef{l + ".cpu_self_frac", "frac"})
	}
	for _, l := range profiledLayers {
		defs = append(defs, metricDef{l + ".alloc_frac", "frac"})
	}
	return defs
}()

// memProfileRate is the allocation sampling rate of traced runs (bytes).
const memProfileRate = 4096

type metricDef struct{ name, unit string }

// config is one run's command line.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	outDir   string // span dumps of traced runs
}

// window returns the measured duration of an untraced run.
func (c config) window() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// metric is one reported value.
type metric struct {
	name  string
	value float64
	unit  string
}

// report collects one run's outcome.
type report struct {
	attempted, failed int64
	problems          []string // first failed checks, for diagnosis
	values            map[string]metric
	order             []string
}

func newReport() *report { return &report{values: make(map[string]metric)} }

// set records a metric; later values replace earlier ones.
func (r *report) set(name string, v float64, unit string) {
	if _, ok := r.values[name]; !ok {
		r.order = append(r.order, name)
	}
	r.values[name] = metric{name, v, unit}
}

// setZero records zero counts for layers the workload does not run.
func (r *report) setZero(names []string) {
	for _, n := range names {
		r.set(n, 0, "count")
	}
}

// fail counts n failed operations or checks and keeps err's description.
func (r *report) fail(n int64, err error) {
	r.failed += n
	if len(r.problems) < 8 {
		r.problems = append(r.problems, err.Error())
	}
}

// result is the JSON object on the last output line.
type result struct {
	Correct   bool                       `json:"correct"`
	Attempted int64                      `json:"attempted"`
	Failed    int64                      `json:"failed"`
	Metrics   map[string]jsonMetricValue `json:"metrics"`
}

type jsonMetricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

const usage = `usage: perfbench --workload <preview|udp_fanin|raise_churn> --seed <n> --seconds <s> --trace <0|1>`

// run parses args, runs the workload, and prints the report. It returns
// the process exit code: 2 for bad usage, 1 for a run that could not
// produce a result.
func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseArgs(args, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n%s\n", err, usage)
		return 2
	}
	runtime.GOMAXPROCS(2) // the load is one process with at most two load goroutines
	r := newReport()
	if err := workloads[cfg.workload](cfg, r); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	defs := endToEndMetrics
	if cfg.trace {
		defs = perLayerMetrics
	}
	res := result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]jsonMetricValue, len(defs)),
	}
	if r.attempted > 0 {
		r.set("fail_frac", float64(r.failed)/float64(r.attempted), "frac")
	}
	fmt.Fprintf(stdout, "workload %s  seed %d  seconds %g  trace %v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	for _, name := range r.order {
		m := r.values[name]
		fmt.Fprintf(stdout, "  %-40s %16.6g %s\n", m.name, m.value, m.unit)
	}
	for _, p := range r.problems {
		fmt.Fprintf(stdout, "  check failed: %s\n", p)
	}
	for _, d := range defs {
		m, ok := r.values[d.name]
		if !ok || m.unit != d.unit || math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			fmt.Fprintf(stderr, "perfbench: %s: metric %s missing or invalid\n", cfg.workload, d.name)
			return 1
		}
		res.Metrics[d.name] = jsonMetricValue{m.value, m.unit}
	}
	if res.Attempted < 1 {
		fmt.Fprintf(stderr, "perfbench: %s: no operation attempted\n", cfg.workload)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// parseArgs reads the command line; every flag is required and unknown
// flags or workloads are errors.
func parseArgs(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 0, "input seed")
	seconds := fs.Float64("seconds", 0, "measured seconds")
	trace := fs.Int("trace", -1, "1 for the traced per-layer run, 0 for the end-to-end run")
	out := fs.String("out", ".bench_build/perfbench", "directory for span dumps of traced runs")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, req := range []string{"workload", "seed", "seconds", "trace"} {
		if !set[req] {
			return config{}, fmt.Errorf("missing --%s", req)
		}
	}
	if fs.NArg() > 0 {
		return config{}, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := workloads[*workload]; !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return config{}, fmt.Errorf("unknown workload %q (have %v)", *workload, names)
	}
	if *seconds <= 0 || *seconds > 120 {
		return config{}, errors.New("--seconds must be in (0, 120]")
	}
	if *trace != 0 && *trace != 1 {
		return config{}, errors.New("--trace must be 0 or 1")
	}
	return config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *out}, nil
}
