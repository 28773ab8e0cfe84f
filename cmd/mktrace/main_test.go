package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/trace"
)

// TestMain lets the test binary stand in for mktrace: with
// MKTRACE_MAIN set it runs main with the command-line flags instead
// of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("MKTRACE_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// mktrace runs the command with args and returns its exit status and
// combined output.
func mktrace(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "MKTRACE_MAIN=1")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	err := cmd.Run()
	var ee *exec.ExitError
	switch {
	case errors.As(err, &ee):
		return ee.ExitCode(), out.String()
	case err != nil:
		t.Fatal(err)
	}
	return 0, out.String()
}

// A short trace written in each format reads back through the same
// codec with every generated record.
func TestWrittenTraceReadsBack(t *testing.T) {
	want := len(trace.Generate(trace.Profiles()["1b"], 7, time.Minute))
	if want == 0 {
		t.Fatal("profile 1b generated no records in a minute")
	}
	for _, format := range []string{"sprite", "coda"} {
		t.Run(format, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "trace."+format)
			code, out := mktrace(t, "-profile", "1b", "-duration", "1m", "-seed", "7", "-format", format, "-o", path)
			if code != 0 {
				t.Fatalf("exit status %d:\n%s", code, out)
			}
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			codec, ok := trace.NewFormat(format)
			if !ok {
				t.Fatalf("no codec %q", format)
			}
			recs, err := codec.Read(f)
			if err != nil {
				t.Fatalf("read back: %v", err)
			}
			if len(recs) != want {
				t.Fatalf("read back %d records, generated %d", len(recs), want)
			}
		})
	}
}

// Bad command lines exit 2: an unknown profile, format or flag.
func TestBadArgumentsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-profile", "9z"},
		{"-format", "xml"},
		{"-zipf", "0.5"},
		{"-nosuchflag"},
	} {
		if code, out := mktrace(t, append(args, "-o", filepath.Join(t.TempDir(), "t"))...); code != 2 {
			t.Errorf("%v: exit status %d, want 2:\n%s", args, code, out)
		}
	}
}
