package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/pprof"
	"strings"
)

// Sampled attribution: a CPU profile and the heap allocation profile of
// one measured phase, bucketed by the layer of the innermost program
// frame of each sample. Layers are the spin/internal/<module> packages;
// samples whose stacks hold no program frame at all (GC workers, the
// scheduler) go to "runtime", the benchmark's own frames to "harness",
// and internal packages outside the named layers to "other".

// profiledLayers are the layers reported as <layer>.cpu_self_frac and
// <layer>.alloc_frac, in report order.
var profiledLayers = []string{
	"kernel", "vtime", "sched", "netwire", "netstack", "dispatch", "codegen",
	"shard", "journal", "fault", "x11", "runtime", "harness", "other",
}

// layerOf maps a fully qualified function name to its layer, or "" for a
// frame that belongs to no program package (the runtime, the standard
// library).
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "spin/internal/"); ok {
		end := strings.IndexAny(rest, "/.")
		if end < 0 {
			end = len(rest)
		}
		m := rest[:end]
		for _, l := range profiledLayers {
			if l == m {
				return m
			}
		}
		return "other"
	}
	// The harness is package main in its binary and spin/perfbench in its
	// test binary.
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "spin/perfbench.") {
		return "harness"
	}
	return ""
}

// innermostLayer returns the layer of the first program frame of a stack
// given leaf first, or "runtime" when there is none.
func innermostLayer(funcs []string) string {
	for _, fn := range funcs {
		if l := layerOf(fn); l != "" {
			return l
		}
	}
	return "runtime"
}

// fractions normalizes per-layer weights to shares of their sum.
func fractions(w map[string]float64) map[string]float64 {
	var sum float64
	for _, v := range w {
		sum += v
	}
	out := make(map[string]float64, len(profiledLayers))
	for _, l := range profiledLayers {
		if sum > 0 {
			out[l] = w[l] / sum
		} else {
			out[l] = 0
		}
	}
	return out
}

// cpuProfile is a running CPU profile.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// stop ends the profile and returns each layer's share of CPU samples.
func (p *cpuProfile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	stacks, err := decodeProfile(p.buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("decode cpu profile: %w", err)
	}
	w := make(map[string]float64)
	for _, s := range stacks {
		w[innermostLayer(s.funcs)] += float64(s.count)
	}
	return fractions(w), nil
}

// memSnapshot is the cumulative allocation profile keyed by stack.
type memSnapshot map[[32]uintptr]runtime.MemProfileRecord

func takeMemSnapshot() memSnapshot {
	runtime.GC() // publish the allocations of the latest cycle
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, ok := runtime.MemProfile(recs, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	snap := make(memSnapshot, n)
	for _, r := range recs[:n] {
		snap[r.Stack0] = r
	}
	return snap
}

// allocFractions returns each layer's share of the objects allocated
// between before and after, unsampled at the given profile rate the way
// pprof does it.
func allocFractions(before, after memSnapshot, rate int) map[string]float64 {
	w := make(map[string]float64)
	for key, r := range after {
		objs := r.AllocObjects - before[key].AllocObjects
		size := r.AllocBytes - before[key].AllocBytes
		if objs <= 0 {
			continue
		}
		scale := 1.0
		if rate > 1 {
			scale = 1 / (1 - math.Exp(-float64(size)/float64(objs)/float64(rate)))
		}
		w[innermostLayer(symbolize(r.Stack()))] += float64(objs) * scale
	}
	return fractions(w)
}

// symbolize resolves a stack of return PCs to function names, leaf first,
// with inlined calls expanded.
func symbolize(pcs []uintptr) []string {
	var out []string
	frames := runtime.CallersFrames(pcs)
	for {
		f, more := frames.Next()
		out = append(out, f.Function)
		if !more {
			return out
		}
	}
}

// profStack is one decoded CPU sample: its sample count and its function
// names, leaf first.
type profStack struct {
	count int64
	funcs []string
}

// decodeProfile reads the gzipped profile.proto that runtime/pprof writes
// and returns its samples. Only the fields attribution needs are decoded:
// samples (location ids, values), locations (id, lines), functions (id,
// name) and the string table.
func decodeProfile(gz []byte) ([]profStack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs  []uint64
		value int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> string index
		strs      []string
	)
	err = protoFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			var vals []uint64
			err := protoFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, w, v, b)
				case 2:
					vals = appendPacked(vals, w, v, b)
				}
				return nil
			})
			if len(vals) > 0 {
				s.value = int64(vals[0]) // the sample count; vals[1] is CPU ns
			}
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := protoFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return protoFields(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := protoFields(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profStack, 0, len(samples))
	for _, s := range samples {
		ps := profStack{count: s.value}
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				if idx := funcNames[fid]; idx >= 0 && int(idx) < len(strs) {
					ps.funcs = append(ps.funcs, strs[idx])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

var errProto = errors.New("malformed protobuf")

// protoFields walks one protobuf message, calling fn with each field's
// number and wire type, and its varint value or length-delimited bytes.
func protoFields(b []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(field, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field's values, packed (wire 2)
// or not (wire 0).
func appendPacked(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
