package main

import (
	"fmt"
	"time"

	"spin/internal/kernel"
	"spin/internal/x11"
)

// The preview workload: x11.Run(x11.DefaultParams()) back to back in a
// closed loop with one caller. It is the paper's own end-to-end
// application (§3.2, Table 3). Its inputs are fixed; the seed selects
// nothing.

// previewEvents are the Table 3 rows, reported as x11.raised_per_op.<row>.
var previewEvents = []string{
	"Ether.PacketArrived",
	"Ip.PacketArrived",
	"Udp.PacketArrived",
	"Tcp.PacketArrived",
	"OsfNet.DelTcpPortHandler",
	"OsfNet.AddTcpPortHandler",
	"MachineTrap.Syscall",
	"Strand.Run",
	"Events.EventNotify",
}

type previewRunner struct {
	golden previewGolden
	last   *x11.Result
}

func (p *previewRunner) do(op int64, tr *tracer) error {
	sp := tr.begin("x11.Run", -1, op)
	res, err := x11.Run(x11.DefaultParams())
	tr.end(sp)
	p.last = res
	return err
}

func (p *previewRunner) check() error { return p.golden.check(p.last) }

func runPreview(cfg config, rep *report) error {
	golden, err := parsePreviewGolden(previewGoldenText)
	if err != nil {
		return err
	}
	if err := reportBoot(rep, func() error {
		// The two machines x11.Run boots: the metered SPIN machine and
		// the ghostview machine sharing its timeline.
		spin, err := kernel.Boot(kernel.Config{Name: "spin", Metered: true})
		if err != nil {
			return err
		}
		_, err = kernel.Boot(kernel.Config{Name: "ghost", ShareWith: spin})
		return err
	}); err != nil {
		return err
	}
	r, setup, err := setupMedian(func() (*previewRunner, error) {
		p := &previewRunner{golden: golden}
		rep.attempted++
		if err := p.do(0, nil); err != nil {
			return nil, err
		}
		if err := p.check(); err != nil {
			return nil, err
		}
		return p, nil
	}, nil)
	if err != nil {
		return err
	}
	rep.set("setup_s", setup, "s")
	for i, row := range r.last.Rows {
		if i < len(previewEvents) && row.Event == previewEvents[i] {
			rep.set("x11.raised_per_op."+row.Event, float64(row.Raised), "count")
		} else {
			return fmt.Errorf("preview: unexpected Table 3 row %q", row.Event)
		}
	}
	rep.setZero(journalCounts)
	_, err = driveClosedLoop(cfg, rep, r, nil)
	return err
}

// reportBoot times boot setupMinReps times and records the median as
// kernel.boot_ms.
func reportBoot(rep *report, boot func() error) error {
	times := make([]float64, 0, setupMinReps)
	for i := 0; i < setupMinReps; i++ {
		t0 := time.Now()
		if err := boot(); err != nil {
			return fmt.Errorf("boot: %w", err)
		}
		times = append(times, float64(time.Since(t0))/1e6)
	}
	rep.set("kernel.boot_ms", median(times), "ms")
	return nil
}

// spanCapacity bounds a traced phase's in-memory span buffer.
const spanCapacity = 1 << 18

// driveClosedLoop runs a closed-loop workload. Untraced, it measures one
// window. Traced, it splits the window into an untraced baseline, a
// span-traced phase (layerSpans, if not nil, derives per-layer metrics
// from its spans) and a profiled phase for sampled attribution. It returns
// the number of ops run.
func driveClosedLoop(cfg config, rep *report, r opRunner, layerSpans func(tr *tracer, st loopStats)) (int64, error) {
	if !cfg.trace {
		st := closedLoop(r, cfg.window(), nil, rep, 1)
		reportLoop(rep, st)
		return st.ops, nil
	}
	phase := cfg.window() / tracedPhases
	base := closedLoop(r, phase, nil, rep, 1)
	reportLoop(rep, base)
	tr := newTracer(time.Now(), spanCapacity)
	traced := closedLoop(r, phase, tr, rep, 1+base.ops)
	if layerSpans != nil {
		layerSpans(tr, traced)
	}
	if err := finishTraced(cfg, rep, base.lat.percentile(50)/1e3, traced.lat.percentile(50)/1e3, tr); err != nil {
		return 0, err
	}
	var profiled loopStats
	err := profilePhase(rep, func() { profiled = closedLoop(r, phase, nil, rep, 1+base.ops+traced.ops) })
	return base.ops + traced.ops + profiled.ops, err
}
