package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/pfs"
)

// TestMain lets the test binary stand in for pfscli: with PFSCLI_MAIN
// set it runs main with the command-line arguments instead of the
// tests.
func TestMain(m *testing.M) {
	if os.Getenv("PFSCLI_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// pfscli runs the command with args and stdin and returns its exit
// status, stdout and stderr.
func pfscli(t *testing.T, stdin []byte, args ...string) (int, []byte, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "PFSCLI_MAIN=1")
	cmd.Stdin = bytes.NewReader(stdin)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var ee *exec.ExitError
	switch {
	case errors.As(err, &ee):
		return ee.ExitCode(), out.Bytes(), errOut.String()
	case err != nil:
		t.Fatal(err)
	}
	return 0, out.Bytes(), errOut.String()
}

// A session against an in-process server on a temporary image: every
// command exits 0, and cat returns the bytes put — across several
// MaxIO-sized transfers — before and after a rename. An unknown
// command exits 2, a server-side error 1.
func TestSessionAgainstServer(t *testing.T) {
	srv, err := pfs.Open(pfs.Config{Path: filepath.Join(t.TempDir(), "pfs.img"), Blocks: 4096, CacheBlocks: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr, err := srv.ServeNFS("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("cut-and-paste file systems\n"), 6000) // ~160 KB
	run := func(stdin []byte, args ...string) (int, []byte, string) {
		return pfscli(t, stdin, append([]string{"-addr", addr}, args...)...)
	}
	ok := func(stdin []byte, args ...string) []byte {
		t.Helper()
		code, out, errOut := run(stdin, args...)
		if code != 0 {
			t.Fatalf("%v: exit status %d: %s", args, code, errOut)
		}
		return out
	}

	ok(nil, "mkdir", "/docs")
	ok(payload, "put", "/docs/a.txt")
	if ls := string(ok(nil, "ls", "/docs")); !strings.Contains(ls, "a.txt") || !strings.Contains(ls, fmt.Sprint(len(payload))) {
		t.Fatalf("ls /docs does not list a.txt of %d bytes:\n%s", len(payload), ls)
	}
	if got := ok(nil, "cat", "/docs/a.txt"); !bytes.Equal(got, payload) {
		t.Fatalf("cat returned %d bytes, put %d", len(got), len(payload))
	}
	ok(nil, "mv", "/docs/a.txt", "/docs/b.txt")
	if got := ok(nil, "cat", "/docs/b.txt"); !bytes.Equal(got, payload) {
		t.Fatalf("cat after mv returned %d bytes, put %d", len(got), len(payload))
	}
	ok(nil, "rm", "/docs/b.txt")
	if ls := string(ok(nil, "ls", "/docs")); ls != "" {
		t.Fatalf("ls /docs after rm:\n%s", ls)
	}
	if st := string(ok(nil, "statfs")); !strings.Contains(st, "layout") {
		t.Fatalf("statfs printed %q", st)
	}

	if code, _, errOut := run(nil, "frobnicate"); code != 2 {
		t.Fatalf("unknown command: exit status %d, want 2: %s", code, errOut)
	}
	if code, _, errOut := run(nil, "cat", "/docs/missing"); code != 1 {
		t.Fatalf("cat of a missing path: exit status %d, want 1: %s", code, errOut)
	}
}
