package main

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {90, 4.6}, {100, 5},
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one = %v, want 7", got)
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
}

func TestCoveredWithin(t *testing.T) {
	for _, c := range []struct {
		name   string
		lo, hi int64
		ivs    []interval
		want   int64
	}{
		{"none", 0, 100, nil, 0},
		{"disjoint", 0, 100, []interval{{10, 20}, {30, 45}}, 25},
		{"overlapping", 0, 100, []interval{{10, 30}, {20, 40}, {35, 50}}, 40},
		{"nested", 0, 100, []interval{{10, 60}, {20, 30}}, 50},
		{"clipped", 10, 50, []interval{{0, 20}, {40, 90}}, 20},
		{"outside", 10, 50, []interval{{60, 70}}, 0},
		{"unsorted", 0, 100, []interval{{50, 60}, {0, 10}}, 20},
	} {
		if got := coveredWithin(c.lo, c.hi, c.ivs); got != c.want {
			t.Errorf("%s: covered = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	// op [0,100) with children send [10,20) and two steps [20,50) and
	// [50,90); the first step has a child [25,35) of its own.
	spans := []span{
		{name: "op", parent: -1, start: 0, end: 100},
		{name: "send", parent: 0, start: 10, end: 20},
		{name: "step", parent: 0, start: 20, end: 50},
		{name: "step", parent: 0, start: 50, end: 90},
		{name: "inner", parent: 2, start: 25, end: 35},
	}
	got := selfTimes(spans)
	want := map[string]selfTime{
		"op":    {count: 1, self: 20},
		"send":  {count: 1, self: 10},
		"step":  {count: 2, self: 60},
		"inner": {count: 1, self: 10},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: %+v, want %+v", name, got[name], w)
		}
	}
}

func TestTracerNilAndFull(t *testing.T) {
	var off *tracer
	if i := off.begin("x", -1, 0); i != -1 || off.full() {
		t.Fatalf("nil tracer recorded a span")
	}
	off.end(-1)
	tr := newTracer(epoch, 2)
	a := tr.begin("a", -1, 1)
	tr.begin("b", a, 1)
	if !tr.full() {
		t.Fatalf("tracer with 2 of 2 spans is not full")
	}
	if i := tr.begin("c", a, 1); i != -1 || tr.dropped != 1 {
		t.Fatalf("begin on a full tracer = %d, dropped %d", i, tr.dropped)
	}
	tr.end(a)
	if s := tr.spans[0]; s.end < s.start || s.op != 1 || tr.spans[1].parent != a {
		t.Fatalf("bad spans %+v", tr.spans)
	}
}

func TestHistPercentileTracksExact(t *testing.T) {
	h := newHist()
	var xs []float64
	// A skewed spread of values from 0 to about 3·10^9.
	for i := 0; i < 5000; i++ {
		v := math.Floor(math.Pow(1.004, float64(i)) * float64(1+i%7))
		if i%97 == 0 {
			v = 0
		}
		xs = append(xs, v)
		h.add(v)
	}
	for _, p := range []float64{0, 10, 50, 90, 99, 100} {
		want := percentile(append([]float64(nil), xs...), p)
		got := h.percentile(p)
		if want == 0 {
			if got != 0 {
				t.Errorf("p%v = %v, want 0", p, got)
			}
			continue
		}
		if math.Abs(got-want)/want > histRes {
			t.Errorf("p%v = %v, want %v within %v", p, got, want, histRes)
		}
	}
	if got := newHist().percentile(50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	h = newHist()
	h.add(2 * histMax)
	if got := h.percentile(50); got != 2*histMax {
		t.Errorf("a value past histMax reads %v, want %v", got, 2*histMax)
	}
	// Repeated values read back exactly, with all their digits.
	h = newHist()
	for _, v := range []float64{5095424, 5095424, 5095424, 9e6} {
		h.add(v)
	}
	if got := h.percentile(50); got != 5095424 {
		t.Errorf("median of repeated values = %v, want 5095424", got)
	}
}

func TestChurnPhaseEpochs(t *testing.T) {
	ph := newChurnPhase()
	for i := 0; i < 2*churnEpoch+1; i++ {
		op := 100.0
		if i >= churnEpoch {
			op = 300
		}
		ph.add(churnRound{shape: [4]float64{1, 2, 3, 6}, demux: 50, op: op,
			hitNS: 40, missNS: 90, hitN: 2})
	}
	// Two whole epochs, means 100 and 300; the last round is not a sample.
	if ph.op.n != 2 {
		t.Fatalf("%d epoch samples, want 2", ph.op.n)
	}
	if got := ph.op.percentile(50); math.Abs(got-200)/200 > histRes {
		t.Errorf("median epoch = %v, want 200", got)
	}
	if got := ph.fast.percentile(50); math.Abs(got-3)/3 > histRes {
		t.Errorf("fast = %v, want the mean of the four shapes, 3", got)
	}
	rounds := int64(2*churnEpoch + 1)
	if ph.hitN != [2]int64{rounds * (churnDemuxBlock - 2), rounds * 2} || ph.hitNS != [2]int64{rounds * 90, rounds * 40} {
		t.Errorf("hit/miss tallies %v %v", ph.hitN, ph.hitNS)
	}
}
