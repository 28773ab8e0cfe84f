package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
)

// TestMain lets the test binary stand in for experiments: with
// EXPERIMENTS_MAIN set it runs main with the command-line flags
// instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("EXPERIMENTS_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs the command in dir with args and returns its exit
// status and combined output.
func runCLI(t *testing.T, dir string, args ...string) (int, string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "EXPERIMENTS_MAIN=1")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	err = cmd.Run()
	var ee *exec.ExitError
	switch {
	case errors.As(err, &ee):
		return ee.ExitCode(), out.String()
	case err != nil:
		t.Fatal(err)
	}
	return 0, out.String()
}

// Bad command lines exit 2 before any simulation runs: an unknown
// study, a removed study selector, a flag outside its study.
func TestBadArgumentsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-study", "nosuchstudy"},
		{"-serving"},
		{"-scale", "huge"},
		{"-disks", "1,2"},
		{"-study", "scaling", "-disks", "0"},
		{"-out", "x.json"},
		{"-study", "serving", "-fig", "2"},
		{"-study", "ablations", "-out", "x.json"},
	} {
		if code, out := runCLI(t, t.TempDir(), args...); code != 2 {
			t.Errorf("%v: exit status %d, want 2:\n%s", args, code, out)
		}
	}
}

// The serving study writes the committed baseline byte for byte where
// -out says.
func TestServingWritesBaseline(t *testing.T) {
	st, _ := experiments.FindStudy("serving")
	want, err := os.ReadFile(filepath.Join("..", "..", st.Artifact))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if code, out := runCLI(t, ".", "-study", "serving", "-out", path); code != 0 {
		t.Fatalf("exit status %d:\n%s", code, out)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("-study serving -out wrote bytes that differ from %s", st.Artifact)
	}
}

// A run away from an artifact's committed scale writes nothing by
// default: paper-scale reliability cells must not land in the
// quick-scale BENCH_4.json.
func TestOtherScaleKeepsArtifact(t *testing.T) {
	st, _ := experiments.FindStudy("reliability")
	dir := t.TempDir()
	code, out := runCLI(t, dir, "-study", "reliability", "-scale", "paper", "-duration", "10s")
	if code != 0 {
		t.Fatalf("exit status %d:\n%s", code, out)
	}
	if _, err := os.Stat(filepath.Join(dir, st.Artifact)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("paper-scale run created %s (stat: %v):\n%s", st.Artifact, err, out)
	}
}

// -fig all at quick scale prints, apart from its wall-time line,
// exactly the text in testdata/fig_all_quick.txt. Every figure runs
// on the virtual kernel, so any change to a simulated schedule shows
// here as a diff. To regenerate after an intended change:
//
//	go run ./cmd/experiments -scale quick -fig all 2>&1 | grep -v '^(wall time' > cmd/experiments/testdata/fig_all_quick.txt
func TestQuickFiguresMatchGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "fig_all_quick.txt"))
	if err != nil {
		t.Fatal(err)
	}
	code, out := runCLI(t, t.TempDir(), "-scale", "quick", "-fig", "all")
	if code != 0 {
		t.Fatalf("exit status %d:\n%s", code, out)
	}
	var got []byte
	for _, line := range bytes.SplitAfter([]byte(out), []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("(wall time")) {
			got = append(got, line...)
		}
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("-fig all -scale quick differs from testdata/fig_all_quick.txt:\n%s", got)
	}
}
