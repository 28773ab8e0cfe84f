package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for patsy: with PATSY_MAIN
// set it runs main with the command-line flags instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("PATSY_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// patsy runs the command with args and returns its exit status and
// standard output.
func patsy(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "PATSY_MAIN=1")
	var out, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	switch {
	case errors.As(err, &ee):
		return ee.ExitCode(), out.String() + stderr.String()
	case err != nil:
		t.Fatal(err)
	}
	return 0, out.String()
}

// A quick replay on a one-member array and on a 3-wide parity array:
// exit 0 and a report with the latency and, when wider than one, the
// per-member block counts.
func TestQuickArrayReplays(t *testing.T) {
	for _, c := range []struct {
		args []string
		want []string
	}{
		{[]string{"-volumes", "1"}, []string{"trace 1a, policy writedelay:", "mean latency", "errors            0"}},
		{[]string{"-volumes", "3", "-placement", "parity"}, []string{"trace 1a, policy writedelay:", "mean latency", "per-volume blocks"}},
	} {
		t.Run(strings.Join(c.args, " "), func(t *testing.T) {
			code, out := patsy(t, append([]string{"-scale", "quick", "-duration", "1m"}, c.args...)...)
			if code != 0 {
				t.Fatalf("exit status %d:\n%s", code, out)
			}
			for _, w := range c.want {
				if !strings.Contains(out, w) {
					t.Fatalf("report lacks %q:\n%s", w, out)
				}
			}
		})
	}
}

// Bad command lines fail: an unknown flag is a usage error (2), an
// unknown value a run error (1).
func TestBadArgumentsFail(t *testing.T) {
	for _, c := range []struct {
		args []string
		code int
	}{
		{[]string{"-nosuchflag"}, 2},
		{[]string{"-volumes", "x"}, 2},
		{[]string{"-scale", "huge"}, 1},
		{[]string{"-scale", "quick", "-policy", "never"}, 1},
		{[]string{"-scale", "quick", "-duration", "1m", "-volumes", "1", "-placement", "mirrored"}, 1},
	} {
		t.Run(strings.Join(c.args, " "), func(t *testing.T) {
			if code, out := patsy(t, c.args...); code != c.code {
				t.Fatalf("exit status %d, want %d:\n%s", code, c.code, out)
			}
		})
	}
}
