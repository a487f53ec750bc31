package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestBadUsageExitsNonZero(t *testing.T) {
	for name, args := range map[string][]string{
		"unknown workload": {"--workload", "table9", "--seed", "1", "--seconds", "1", "--trace", "0"},
		"unknown flag":     {"--workload", "preview", "--seed", "1", "--seconds", "1", "--trace", "0", "--table", "all"},
		"missing seed":     {"--workload", "preview", "--seconds", "1", "--trace", "0"},
		"bad trace":        {"--workload", "preview", "--seed", "1", "--seconds", "1", "--trace", "2"},
		"bad seconds":      {"--workload", "preview", "--seed", "1", "--seconds", "0", "--trace", "0"},
		"stray argument":   {"--workload", "preview", "--seed", "1", "--seconds", "1", "--trace", "0", "extra"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("%s: exit %d, want 2", name, code)
		}
		if out.Len() != 0 {
			t.Errorf("%s: printed a result: %q", name, out.String())
		}
		if !strings.Contains(errOut.String(), "usage:") {
			t.Errorf("%s: no usage on stderr: %q", name, errOut.String())
		}
	}
}

// TestResultLine runs every workload briefly, untraced and traced, and
// checks the JSON contract of the last output line.
func TestResultLine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, wl := range []string{"preview", "udp_fanin", "raise_churn"} {
		for _, trace := range []string{"0", "1"} {
			var out, errOut bytes.Buffer
			args := []string{"--workload", wl, "--seed", "2", "--seconds", "0.3", "--trace", trace, "--out", t.TempDir()}
			if code := run(args, &out, &errOut); code != 0 {
				t.Fatalf("%s trace %s: exit %d: %s", wl, trace, code, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line is not the result: %v", wl, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace %s: %+v\n%s", wl, trace, res, out.String())
			}
			defs := endToEndMetrics
			if trace == "1" {
				defs = perLayerMetrics
			}
			if len(res.Metrics) != len(defs) {
				t.Fatalf("%s trace %s: %d metrics, want %d", wl, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Fatalf("%s trace %s: metric %s missing or mis-united: %+v", wl, trace, d.name, m)
				}
			}
		}
	}
}
