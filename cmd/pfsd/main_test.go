package main

import (
	"bufio"
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/nfs"
)

// TestMain lets the test binary stand in for pfsd: with PFSD_MAIN set
// it runs main with the command-line flags instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("PFSD_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// daemon is a running pfsd: addr yields the NFS address it bound,
// exit its exit status once it is gone.
type daemon struct {
	cmd    *exec.Cmd
	addr   chan string
	exit   chan int
	stderr bytes.Buffer // complete once exit has delivered
}

// pfsd starts the server with args in dir.
func pfsd(t *testing.T, dir string, args ...string) *daemon {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "PFSD_MAIN=1")
	d := &daemon{cmd: cmd, addr: make(chan string, 1), exit: make(chan int, 1)}
	cmd.Stderr = &d.stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cmd.Process.Kill() })
	go func() {
		const marker = "pfsd: serving volume 1 "
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, marker) {
				d.addr <- line[strings.LastIndex(line, " on ")+len(" on "):]
			}
		}
		code := 0
		var ee *exec.ExitError
		if err := cmd.Wait(); errors.As(err, &ee) {
			code = ee.ExitCode()
		} else if err != nil {
			code = -1
		}
		d.exit <- code
	}()
	return d
}

// serving returns the NFS address once pfsd is up.
func (d *daemon) serving(t *testing.T) string {
	t.Helper()
	select {
	case addr := <-d.addr:
		return addr
	case code := <-d.exit:
		t.Fatalf("pfsd exited with status %d before serving:\n%s", code, d.stderr.String())
	case <-time.After(30 * time.Second):
		t.Fatal("pfsd did not start serving within 30s")
	}
	return ""
}

// wait checks that pfsd exits, within 30s, with status want.
func (d *daemon) wait(t *testing.T, want int) {
	t.Helper()
	select {
	case code := <-d.exit:
		if code != want {
			t.Fatalf("pfsd exited with status %d, want %d:\n%s", code, want, d.stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("pfsd did not exit within 30s")
	}
}

// Boot pfsd with each flag set CI passes, do one NFS round trip, and
// check that SIGINT drains it to a clean exit.
func TestServeRoundTripAndDrain(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
	}{
		{"striped-admin-slowop", []string{"-volumes", "2", "-placement", "striped", "-admin", "127.0.0.1:0", "-slowop", "1ms"}},
		{"mirrored-spare-selfheal", []string{"-volumes", "3", "-placement", "mirrored", "-spares", "1", "-selfheal", "-admin", "127.0.0.1:0"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			args := append([]string{"-image", filepath.Join(dir, "pfs.img"), "-blocks", "4096", "-addr", "127.0.0.1:0"}, c.args...)
			d := pfsd(t, dir, args...)
			addr := d.serving(t)

			cl, err := nfs.Dial(addr)
			if err != nil {
				t.Fatalf("dial %s: %v", addr, err)
			}
			root, _, err := cl.Mount(1)
			if err != nil {
				t.Fatalf("mount: %v", err)
			}
			fh, _, err := cl.Create(root, "smoke")
			if err != nil {
				t.Fatalf("create: %v", err)
			}
			data := bytes.Repeat([]byte("pfsd"), 3000)
			if _, err := cl.Write(fh, 0, data); err != nil {
				t.Fatalf("write: %v", err)
			}
			got, err := cl.Read(fh, 0, len(data))
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("read back: %d bytes, err %v", len(got), err)
			}
			cl.Close()

			if err := d.cmd.Process.Signal(syscall.SIGINT); err != nil {
				t.Fatal(err)
			}
			d.wait(t, 0)
		})
	}
}

// The flags that only the retired A/B harness set are gone: pfsd
// rejects each as a usage error.
func TestRemovedFlagsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-shards", "1"}, {"-pipeline", "1"}, {"-readahead", "-1"}, {"-cluster", "-1"}, {"-nointentlog"},
	} {
		t.Run(args[0], func(t *testing.T) {
			dir := t.TempDir()
			pfsd(t, dir, append([]string{"-image", filepath.Join(dir, "pfs.img"), "-addr", "127.0.0.1:0"}, args...)...).wait(t, 2)
		})
	}
}
