// Package clitest drives a command's main function from its own tests: the
// test binary re-executes itself with an environment variable that makes
// TestMain run main instead of the tests, so a test can capture the
// command's stdout, stderr, and exit status without building it.
package clitest

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// argsEnv carries the command-line arguments (space separated) to the
// re-executed test binary.
const argsEnv = "SPIN_CLITEST_ARGS"

// Main is the body of a command package's TestMain: in a child started by
// Run it runs main with the requested arguments and exits; otherwise it
// runs the tests.
func Main(m *testing.M, name string, main func()) {
	if args, ok := os.LookupEnv(argsEnv); ok {
		os.Args = append([]string{name}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// Run runs the command under test with args in a child process and
// returns what it printed and its exit status.
func Run(t testing.TB, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), argsEnv+"="+strings.Join(args, " "))
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatalf("run %v: %v", args, err)
	}
	return out.String(), errb.String(), code
}

// Golden runs the command with args and fails the test unless it exits 0
// and prints exactly the contents of the golden file.
func Golden(t testing.TB, golden string, args ...string) {
	t.Helper()
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	got, stderr, code := Run(t, args...)
	if code != 0 {
		t.Fatalf("%v: exit %d: %s", args, code, stderr)
	}
	if got != string(want) {
		t.Errorf("%v differs from %s at %s", args, golden, firstDiff(got, string(want)))
	}
}

// firstDiff renders the first line where got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n  got:  %q\n  want: %q", i+1, gl, wl)
		}
	}
	return "no line (trailing bytes)"
}
