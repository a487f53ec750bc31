package main

import (
	"math"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"spin/internal/dispatch.(*Event).Raise1":      "dispatch",
		"spin/internal/vtime.(*CPU).spend":            "vtime",
		"spin/internal/emu/osf.(*Emulator).Sys":       "other",
		"spin/internal/stripe.Index":                  "other",
		"main.(*churnWorld).round":                    "harness",
		"runtime.mallocgc":                            "",
		"sync.(*Mutex).Lock":                          "",
		"spin/internal/x11.(*world).renderPage":       "x11",
		"spin/internal/codegen.(*Plan).execute.func1": "codegen",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
	if got := innermostLayer([]string{"runtime.mallocgc", "sync.(*Pool).Get", "spin/internal/sched.(*Scheduler).enqueue", "main.run"}); got != "sched" {
		t.Errorf("innermost layer %q, want sched", got)
	}
	if got := innermostLayer([]string{"runtime.gcBgMarkWorker"}); got != "runtime" {
		t.Errorf("stack without program frames went to %q, want runtime", got)
	}
}

var sink uint64

// burn spins in harness code; the accumulator stays in a register so the
// loop makes no calls, not even race-detector hooks.
func burn(d time.Duration) {
	acc := uint64(1)
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1_000_000; i++ {
			acc = acc*31 + uint64(i)
		}
	}
	sink = acc
}

func TestCPUProfileAttribution(t *testing.T) {
	p, err := startCPUProfile()
	if err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	burn(400 * time.Millisecond)
	frac, err := p.stop()
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range frac {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("fractions sum to %v: %v", sum, frac)
	}
	if frac["harness"] < 0.5 {
		t.Fatalf("a harness busy loop got %v of the samples: %v", frac["harness"], frac)
	}
}

func TestAllocAttribution(t *testing.T) {
	before := takeMemSnapshot()
	var keep [][]byte
	for i := 0; i < 2000; i++ {
		keep = append(keep, make([]byte, 4096))
	}
	frac := allocFractions(before, takeMemSnapshot(), 512*1024)
	if len(keep) == 0 || frac["harness"] < 0.5 {
		t.Fatalf("harness allocations got %v: %v", frac["harness"], frac)
	}
}
