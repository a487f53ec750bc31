package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer's public API, made by the
// benchmark's own code. Spans of one op share op; parent is the index of
// the enclosing span in the same tracer, or -1 for a root.
type span struct {
	name       string
	parent     int32
	op         int64
	start, end int64 // ns since the tracer's base
}

// tracer records spans in memory for one goroutine. A nil *tracer is the
// untraced configuration: every method is a no-op behind one nil check.
// Spans beyond the preallocated capacity are counted, not recorded.
type tracer struct {
	base    time.Time
	spans   []span
	dropped int64
}

func newTracer(base time.Time, capacity int) *tracer {
	return &tracer{base: base, spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its index (-1 when untraced or full).
func (t *tracer) begin(name string, parent int32, op int64) int32 {
	if t == nil {
		return -1
	}
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	now := sinceNS(t.base)
	t.spans = append(t.spans, span{name: name, parent: parent, op: op, start: now, end: now})
	return int32(len(t.spans) - 1)
}

// end closes the span begin returned.
func (t *tracer) end(i int32) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].end = sinceNS(t.base)
}

// full reports whether the span buffer has no room left.
func (t *tracer) full() bool { return t != nil && len(t.spans) == cap(t.spans) }

// selfTime is one span name's aggregate: how many spans, and their self
// time (duration minus the part of it covered by child spans).
type selfTime struct {
	count, self int64
}

// selfTimes aggregates spans by name.
func selfTimes(spans []span) map[string]selfTime {
	children := make(map[int32][]interval)
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], interval{s.start, s.end})
		}
	}
	out := make(map[string]selfTime)
	for i, s := range spans {
		agg := out[s.name]
		agg.count++
		agg.self += s.end - s.start - coveredWithin(s.start, s.end, children[int32(i)])
		out[s.name] = agg
	}
	return out
}

// writeSpans writes every tracer's spans as JSON lines to dir/name.
func writeSpans(dir, name string, tracers ...*tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for tid, t := range tracers {
		for _, s := range t.spans {
			fmt.Fprintf(w, "{\"tid\":%d,\"name\":%q,\"op\":%d,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d}\n",
				tid, s.name, s.op, s.parent, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
