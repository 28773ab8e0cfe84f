package pfs

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/nfs"
	"repro/internal/sched"
)

func TestOpenWriteReadClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pfs.img")
	srv, err := Open(Config{Path: path, Blocks: 2048, CacheBlocks: 128})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	msg := []byte("the real thing")
	err = srv.Do(func(tk sched.Task) error {
		h, err := srv.Vol.Create(tk, "/greeting", core.TypeRegular)
		if err != nil {
			return err
		}
		if err := srv.Vol.Write(tk, h, msg, int64(len(msg))); err != nil {
			return err
		}
		buf := make([]byte, len(msg))
		if _, err := srv.Vol.ReadAt(tk, h, 0, buf, int64(len(msg))); err != nil {
			return err
		}
		if !bytes.Equal(buf, msg) {
			t.Error("read-back mismatch")
		}
		return srv.Vol.Close(tk, h)
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestRestartRecoversData(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pfs.img")
	msg := bytes.Repeat([]byte{0xE7}, 3*core.BlockSize)
	{
		srv, err := Open(Config{Path: path, Blocks: 2048, CacheBlocks: 128})
		if err != nil {
			t.Fatalf("first open: %v", err)
		}
		err = srv.Do(func(tk sched.Task) error {
			h, err := srv.Vol.Create(tk, "/persist.bin", core.TypeRegular)
			if err != nil {
				return err
			}
			if err := srv.Vol.Write(tk, h, msg, int64(len(msg))); err != nil {
				return err
			}
			return srv.Vol.Close(tk, h)
		})
		if err != nil {
			t.Fatalf("write: %v", err)
		}
		if err := srv.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}
	// Reopen: the file must come back from the image.
	srv, err := Open(Config{Path: path, Blocks: 2048, CacheBlocks: 128})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer srv.Close()
	err = srv.Do(func(tk sched.Task) error {
		h, err := srv.Vol.Open(tk, "/persist.bin")
		if err != nil {
			return err
		}
		buf := make([]byte, len(msg))
		n, err := srv.Vol.Read(tk, h, buf, int64(len(msg)))
		if err != nil {
			return err
		}
		if int(n) != len(msg) || !bytes.Equal(buf, msg) {
			t.Error("data lost across restart")
		}
		return srv.Vol.Close(tk, h)
	})
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
}

// TestConcurrentLocalClients hammers one PFS through the in-process
// client interface from many goroutines at once: each Do call is a
// kernel task acting as one client representative, so this exercises
// the same cache/layout paths the simulator runs — under real
// concurrency. Run with -race it certifies the on-line instantiation.
func TestConcurrentLocalClients(t *testing.T) {
	if testing.Short() {
		t.Skip("hammer test in -short mode")
	}
	path := filepath.Join(t.TempDir(), "pfs.img")
	srv, err := Open(Config{Path: path, Blocks: 4096, CacheBlocks: 256})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer srv.Close()
	const (
		clients = 8
		rounds  = 10
	)
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		id := i
		go func() {
			errs <- func() error {
				dir := fmt.Sprintf("/c%d", id)
				if err := srv.Do(func(tk sched.Task) error {
					return srv.Vol.Mkdir(tk, dir)
				}); err != nil {
					return fmt.Errorf("client %d: mkdir: %w", id, err)
				}
				payload := bytes.Repeat([]byte{byte('a' + id)}, core.BlockSize+512)
				for r := 0; r < rounds; r++ {
					name := fmt.Sprintf("%s/f%d", dir, r)
					err := srv.Do(func(tk sched.Task) error {
						h, err := srv.Vol.Create(tk, name, core.TypeRegular)
						if err != nil {
							return err
						}
						if err := srv.Vol.Write(tk, h, payload, int64(len(payload))); err != nil {
							return err
						}
						buf := make([]byte, len(payload))
						if _, err := srv.Vol.ReadAt(tk, h, 0, buf, int64(len(payload))); err != nil {
							return err
						}
						if !bytes.Equal(buf, payload) {
							return fmt.Errorf("read-back mismatch")
						}
						if err := srv.Vol.Close(tk, h); err != nil {
							return err
						}
						if r%2 == 1 {
							return srv.Vol.Remove(tk, name)
						}
						return nil
					})
					if err != nil {
						return fmt.Errorf("client %d round %d: %w", id, r, err)
					}
				}
				return srv.Do(func(tk sched.Task) error {
					names, err := srv.Vol.Readdir(tk, dir)
					if err != nil {
						return fmt.Errorf("client %d: readdir: %w", id, err)
					}
					if want := rounds - rounds/2; len(names) != want {
						return fmt.Errorf("client %d: %d files survived, want %d", id, len(names), want)
					}
					return nil
				})
			}()
		}()
	}
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestArrayRestartRecoversData writes through a 2-wide striped
// array PFS, closes it, reopens the image set and reads the bytes
// back — the volume manager's persistence path end to end.
func TestArrayRestartRecoversData(t *testing.T) {
	base := filepath.Join(t.TempDir(), "arr.img")
	cfg := Config{Path: base, Blocks: 2048, CacheBlocks: 128,
		Volumes: 2, Placement: "striped", StripeBlocks: 2}
	msg := bytes.Repeat([]byte{0xA5, 0x5A, 0x42}, 7*core.BlockSize/3)
	{
		srv, err := Open(cfg)
		if err != nil {
			t.Fatalf("first open: %v", err)
		}
		if srv.Array.Width() != 2 {
			t.Fatalf("array width %d", srv.Array.Width())
		}
		err = srv.Do(func(tk sched.Task) error {
			h, err := srv.Vol.Create(tk, "/striped.bin", core.TypeRegular)
			if err != nil {
				return err
			}
			if err := srv.Vol.Write(tk, h, msg, int64(len(msg))); err != nil {
				return err
			}
			return srv.Vol.Close(tk, h)
		})
		if err != nil {
			t.Fatalf("write: %v", err)
		}
		if err := srv.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := os.Stat(fmt.Sprintf("%s.v%d", base, i)); err != nil {
			t.Fatalf("member image: %v", err)
		}
	}
	srv, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer srv.Close()
	err = srv.Do(func(tk sched.Task) error {
		h, err := srv.Vol.Open(tk, "/striped.bin")
		if err != nil {
			return err
		}
		if h.Size() != int64(len(msg)) {
			return fmt.Errorf("size after restart: %d, want %d", h.Size(), len(msg))
		}
		buf := make([]byte, len(msg))
		n, err := srv.Vol.Read(tk, h, buf, int64(len(msg)))
		if err != nil {
			return err
		}
		if int(n) != len(msg) || !bytes.Equal(buf, msg) {
			return fmt.Errorf("data lost across array restart")
		}
		return srv.Vol.Close(tk, h)
	})
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
}

// TestArrayGeometryMismatchRejected reopens an array image set under
// the wrong flags and expects the label to refuse it.
func TestArrayGeometryMismatchRejected(t *testing.T) {
	base := filepath.Join(t.TempDir(), "arr.img")
	cfg := Config{Path: base, Blocks: 2048, CacheBlocks: 128,
		Volumes: 2, Placement: "striped", StripeBlocks: 4}
	srv, err := Open(cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	bad := cfg
	bad.Placement = "affinity"
	if _, err := Open(bad); err == nil {
		t.Fatal("affinity reopen of a striped image set accepted")
	}
	bad = cfg
	bad.StripeBlocks = 8
	if _, err := Open(bad); err == nil {
		t.Fatal("stripe-width change accepted")
	}
}

// TestConcurrentNFSClientsOn4VolumeArray hammers a 4-wide striped
// array PFS over the network protocol from concurrent clients; with
// -race it certifies the volume manager's fan-out paths under real
// concurrency.
func TestConcurrentNFSClientsOn4VolumeArray(t *testing.T) {
	if testing.Short() {
		t.Skip("hammer test in -short mode")
	}
	base := filepath.Join(t.TempDir(), "arr4.img")
	srv, err := Open(Config{Path: base, Blocks: 2048, CacheBlocks: 256,
		Volumes: 4, Placement: "striped", StripeBlocks: 2})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer srv.Close()
	addr, err := srv.ServeNFS("127.0.0.1:0")
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	const (
		clients = 6
		rounds  = 8
	)
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		id := i
		go func() {
			errs <- func() error {
				c, err := nfs.Dial(addr)
				if err != nil {
					return err
				}
				defer c.Close()
				root, _, err := c.Mount(1)
				if err != nil {
					return fmt.Errorf("client %d: mount: %w", id, err)
				}
				dir, _, err := c.Mkdir(root, fmt.Sprintf("c%d", id))
				if err != nil {
					return fmt.Errorf("client %d: mkdir: %w", id, err)
				}
				payload := bytes.Repeat([]byte{byte('A' + id)}, 3*core.BlockSize+511)
				for r := 0; r < rounds; r++ {
					name := fmt.Sprintf("f%d", r)
					fh, _, err := c.Create(dir, name)
					if err != nil {
						return fmt.Errorf("client %d round %d: create: %w", id, r, err)
					}
					if _, err := c.Write(fh, 0, payload); err != nil {
						return fmt.Errorf("client %d round %d: write: %w", id, r, err)
					}
					got, err := c.Read(fh, 0, len(payload))
					if err != nil {
						return fmt.Errorf("client %d round %d: read: %w", id, r, err)
					}
					if !bytes.Equal(got, payload) {
						return fmt.Errorf("client %d round %d: read-back mismatch", id, r)
					}
					if r%2 == 1 {
						if err := c.Remove(dir, name); err != nil {
							return fmt.Errorf("client %d round %d: remove: %w", id, r, err)
						}
					}
				}
				ents, err := c.Readdir(dir)
				if err != nil {
					return fmt.Errorf("client %d: readdir: %w", id, err)
				}
				if want := rounds - rounds/2; len(ents) != want {
					return fmt.Errorf("client %d: %d files survived, want %d", id, len(ents), want)
				}
				return nil
			}()
		}()
	}
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	// Data really spread: flush the cache and check every member
	// received writes.
	if err := srv.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	wr := srv.Array.WriteGroup().Values()
	for i, w := range wr {
		if w == 0 {
			t.Errorf("array member %d saw no writes: %v", i, wr)
		}
	}
}

// TestGracefulShutdownDrains checks Shutdown completes in-flight
// NFS work, syncs, and leaves a reopenable image, while new calls
// after the drain fail.
func TestGracefulShutdownDrains(t *testing.T) {
	base := filepath.Join(t.TempDir(), "drain.img")
	cfg := Config{Path: base, Blocks: 2048, CacheBlocks: 128,
		Volumes: 2, Placement: "striped", StripeBlocks: 2}
	srv, err := Open(cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	addr, err := srv.ServeNFS("127.0.0.1:0")
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	c, err := nfs.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	root, _, err := c.Mount(1)
	if err != nil {
		t.Fatalf("mount: %v", err)
	}
	payload := bytes.Repeat([]byte{0x3C}, 2*core.BlockSize)
	fh, _, err := c.Create(root, "last-write")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := c.Write(fh, 0, payload); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := srv.Shutdown(); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	if err := c.Null(); err == nil {
		t.Error("call succeeded after drain")
	}
	// The write that completed before the drain must be durable.
	srv2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen after shutdown: %v", err)
	}
	defer srv2.Close()
	err = srv2.Do(func(tk sched.Task) error {
		h, err := srv2.Vol.Open(tk, "/last-write")
		if err != nil {
			return err
		}
		buf := make([]byte, len(payload))
		if _, err := srv2.Vol.Read(tk, h, buf, int64(len(payload))); err != nil {
			return err
		}
		if !bytes.Equal(buf, payload) {
			return fmt.Errorf("pre-drain write lost")
		}
		return srv2.Vol.Close(tk, h)
	})
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
}

func TestFlushPolicySelectable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pfs.img")
	srv, err := Open(Config{Path: path, Blocks: 2048, CacheBlocks: 128,
		Flush: cache.WriteDelay()})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if srv.Cache.Policy().Name != "writedelay" {
		t.Fatalf("policy %q", srv.Cache.Policy().Name)
	}
	srv.Close()
}

func TestBadSchedulerRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pfs.img")
	if _, err := Open(Config{Path: path, Blocks: 2048, QueueSched: "nope"}); err == nil {
		t.Fatal("bad scheduler accepted")
	}
}

// flushers counts the goroutines running a cache shard's flusher.
func flushers() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "cache.(*shard).flusherLoop") {
			count++
		}
	}
	return count
}

// settleFlushers polls the flusher count until done accepts it (or 5s
// pass): goroutines are counted once they run, and a flusher that has
// signalled its exit may still be returning.
func settleFlushers(done func(n int) bool) int {
	n := flushers()
	for deadline := time.Now().Add(5 * time.Second); !done(n) && time.Now().Before(deadline); n = flushers() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// steadyFlushers is the baseline flusher count: the one that stops
// moving.
func steadyFlushers() int {
	last := -1
	return settleFlushers(func(n int) bool {
		steady := n == last
		last = n
		time.Sleep(10 * time.Millisecond)
		return steady
	})
}

// Close stops the server's cache flushers: none of its goroutines
// stays parked, keeping the cache and its arena reachable.
func TestCloseStopsCacheFlushers(t *testing.T) {
	before := steadyFlushers()
	srv, err := Open(Config{Path: filepath.Join(t.TempDir(), "pfs.img"), Blocks: 2048, CacheBlocks: 128})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	shards := srv.Cache.Shards()
	if n := settleFlushers(func(n int) bool { return n == before+shards }); n != before+shards {
		t.Fatalf("%d flusher goroutines running, want %d (%d shards)", n, before+shards, shards)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if n := settleFlushers(func(n int) bool { return n == before }); n != before {
		t.Fatalf("%d flusher goroutines left after Close, want %d", n, before)
	}
}

// Close releases every goroutine the server started, device workers
// included: open/serve/close cycles on a single volume and on a
// parity array with a hot spare leave the goroutine count where it
// started.
func TestCloseReleasesGoroutines(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"width1", Config{Blocks: 2048, CacheBlocks: 128}},
		{"parity3-spare", Config{Blocks: 2048, CacheBlocks: 128, Volumes: 3, Placement: "parity", Spares: 1}},
		{"parity3-selfheal", Config{Blocks: 2048, CacheBlocks: 128, Volumes: 3, Placement: "parity", Spares: 1, SelfHeal: true}},
	} {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			for i := 0; i < 5; i++ {
				cfg := c.cfg
				cfg.Path = filepath.Join(t.TempDir(), "pfs.img")
				srv, err := Open(cfg)
				if err != nil {
					t.Fatalf("cycle %d: Open: %v", i, err)
				}
				if _, err := srv.ServeNFS("127.0.0.1:0"); err != nil {
					t.Fatalf("cycle %d: ServeNFS: %v", i, err)
				}
				if err := srv.Close(); err != nil {
					t.Fatalf("cycle %d: Close: %v", i, err)
				}
			}
			if n := settleGoroutines(before); n > before {
				t.Fatalf("%d goroutines after 5 open/close cycles, %d before", n, before)
			}
		})
	}
}

// settleGoroutines polls runtime.NumGoroutine until it is back to
// want (or 5s pass): an exiting goroutine may still be returning.
func settleGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}
