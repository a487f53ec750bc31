package main

import (
	_ "embed"
	"fmt"
	"strconv"
	"strings"

	"spin/internal/x11"
)

//go:embed testdata/preview.golden
var previewGoldenText string

// previewGolden is the expected outcome of x11.Run(x11.DefaultParams()):
// the Table 3 rendering and the counters Result.String leaves out.
type previewGolden struct {
	table          string
	tracedSyscalls int64
	bytesReceived  int64
	pagesShown     int
}

// parsePreviewGolden reads "key value" lines, a "---" separator, and the
// expected Result.String() text.
func parsePreviewGolden(text string) (previewGolden, error) {
	head, table, ok := strings.Cut(text, "---\n")
	if !ok {
		return previewGolden{}, fmt.Errorf("preview golden: missing --- separator")
	}
	g := previewGolden{table: table}
	for _, line := range strings.Split(strings.TrimSpace(head), "\n") {
		key, val, _ := strings.Cut(line, " ")
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return previewGolden{}, fmt.Errorf("preview golden: %q: %w", line, err)
		}
		switch key {
		case "traced_syscalls":
			g.tracedSyscalls = n
		case "bytes_received":
			g.bytesReceived = n
		case "pages_shown":
			g.pagesShown = int(n)
		default:
			return previewGolden{}, fmt.Errorf("preview golden: unknown key %q", key)
		}
	}
	return g, nil
}

// check compares one preview's result with the golden outcome.
func (g previewGolden) check(r *x11.Result) error {
	switch {
	case r == nil:
		return fmt.Errorf("preview: no result")
	case r.TracedSyscalls != g.tracedSyscalls:
		return fmt.Errorf("preview: traced syscalls %d, want %d", r.TracedSyscalls, g.tracedSyscalls)
	case r.BytesReceived != g.bytesReceived:
		return fmt.Errorf("preview: bytes received %d, want %d", r.BytesReceived, g.bytesReceived)
	case r.PagesShown != g.pagesShown:
		return fmt.Errorf("preview: pages shown %d, want %d", r.PagesShown, g.pagesShown)
	}
	if got := r.String(); got != g.table {
		return fmt.Errorf("preview: Table 3 differs from golden:\n%s", got)
	}
	return nil
}
