package main

import (
	"math"
	"slices"
	"time"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs by linear
// interpolation between the two nearest ranks, the estimator NumPy uses by
// default. xs is sorted in place. It returns 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := p / 100 * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// median is percentile 50.
func median(xs []float64) float64 { return percentile(xs, 50) }

// hist is a log-bucketed histogram of non-negative values. Bucket 0 holds
// values below 1; bucket i ≥ 1 holds [g^(i-1), g^i) with g = 1+histRes,
// up to histMax. Its size is fixed, so recording samples adds nothing to
// the live heap the benchmark reports however many samples a run
// records. A bucket keeps the sum of its values, and a sample reads as
// the mean of its bucket: exact when the bucket's values are equal, and
// within histRes of the sample otherwise.
type hist struct {
	counts []int64
	sums   []float64
	n      int64
}

const (
	histRes = 0.01
	histMax = 1e10
)

var (
	histLogG    = math.Log1p(histRes)
	histBuckets = int(math.Log(histMax)/histLogG) + 2
)

func newHist() *hist {
	return &hist{counts: make([]int64, histBuckets), sums: make([]float64, histBuckets)}
}

// add records v.
func (h *hist) add(v float64) {
	i := 0
	if v >= 1 {
		i = min(int(math.Log(v)/histLogG)+1, len(h.counts)-1)
	}
	h.counts[i]++
	h.sums[i] += v
	h.n++
}

// at returns the value of the k-th smallest sample (from 0): the mean of
// its bucket.
func (h *hist) at(k int64) float64 {
	var cum int64
	for i, c := range h.counts {
		if cum += c; cum > k {
			return h.sums[i] / float64(c)
		}
	}
	return 0
}

// percentile is percentile over the recorded samples, interpolating
// between the two nearest ranks as the slice version does. It returns 0
// when nothing was recorded.
func (h *hist) percentile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	pos := p / 100 * float64(h.n-1)
	lo := int64(pos)
	if lo >= h.n-1 {
		return h.at(h.n - 1)
	}
	a, b := h.at(lo), h.at(lo+1)
	return a + (pos-float64(lo))*(b-a)
}

// durationsUS converts nanosecond samples to microseconds.
func durationsUS(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e3
	}
	return out
}

// interval is a half-open [start, end) span of nanoseconds.
type interval struct{ start, end int64 }

// coveredWithin returns how much of [lo, hi) the union of ivs covers.
// Overlapping and out-of-range intervals are merged and clipped, so a
// child span that outlives its parent never counts twice.
func coveredWithin(lo, hi int64, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, lo), min(iv.end, hi)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	slices.SortFunc(clipped, func(a, b interval) int { return int(a.start - b.start) })
	var total int64
	curS, curE := int64(0), int64(0)
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			curS, curE, open = iv.start, iv.end, true
		case iv.start <= curE:
			curE = max(curE, iv.end)
		default:
			total += curE - curS
			curS, curE = iv.start, iv.end
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// sinceNS returns nanoseconds elapsed since base on the monotonic clock.
func sinceNS(base time.Time) int64 { return int64(time.Since(base)) }

// epoch anchors nowNS.
var epoch = time.Now()

// nowNS returns monotonic nanoseconds since the process started.
func nowNS() int64 { return sinceNS(epoch) }
