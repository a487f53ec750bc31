package main

import (
	"slices"
	"strings"
	"testing"

	"spin/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, "spinbench", main) }

// TestGoldenOutputs is the stability invariant: the virtual-time tables
// are deterministic, so any drift in a clock reading shows up as a
// byte difference from the committed output. Regenerate a golden only for
// an intended cost-model change, with
//
//	go run ./cmd/spinbench -table all > cmd/spinbench/testdata/table_all.golden
//	go run ./cmd/spinbench -json > cmd/spinbench/testdata/json.golden
func TestGoldenOutputs(t *testing.T) {
	clitest.Golden(t, "testdata/table_all.golden", "-table", "all")
	clitest.Golden(t, "testdata/json.golden", "-json")
}

// TestUnknownTableFailsLoudly: a -table value the command does not know
// prints the usage, naming every accepted table, and exits 2 — in the
// formatted and the JSON mode alike — instead of printing nothing and
// exiting 0.
func TestUnknownTableFailsLoudly(t *testing.T) {
	for _, args := range [][]string{
		{"-table", "bogus"},
		{"-json", "-table", "bogus"},
	} {
		stdout, stderr, code := clitest.Run(t, args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if stdout != "" {
			t.Errorf("%v: printed %q to stdout", args, stdout)
		}
		if !strings.Contains(stderr, `unknown table "bogus"`) || !strings.Contains(stderr, "Usage") {
			t.Errorf("%v: stderr lacks the error and usage:\n%s", args, stderr)
		}
	}
}

// TestTableHelpListsEveryTable: the -table help names each accepted table.
func TestTableHelpListsEveryTable(t *testing.T) {
	_, stderr, _ := clitest.Run(t, "-h")
	_, list, ok := strings.Cut(stderr, "which table to regenerate: ")
	list, _, _ = strings.Cut(list, " (default")
	if !ok {
		t.Fatalf("no -table help in:\n%s", stderr)
	}
	want := []string{"1", "2", "tree", "install", "async", "micro", "faults",
		"overload", "inline", "batch", "journal", "remote", "shard", "all"}
	if got := strings.Split(list, ", "); !slices.Equal(got, want) {
		t.Errorf("-table help lists %q, want %q", got, want)
	}
}
