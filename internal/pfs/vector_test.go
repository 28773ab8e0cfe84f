package pfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/nfs"
)

// vecDriverCounts sums the scatter-gather request counters across the
// server's drivers.
func vecDriverCounts(s *Server) (reads, writes int64) {
	for _, d := range s.Drivers {
		if st := d.DriverStats(); st != nil {
			reads += st.VecReads.Value()
			writes += st.VecWrites.Value()
		}
	}
	return
}

// TestVectoredColdStreamZeroStagedCopies certifies the zero-copy
// claim end to end: a streaming write followed by a cold sequential
// read-back (fresh server, empty cache) moves every data byte by
// scatter-gather — the staging-copy counters stay at exactly zero —
// and the bytes that come back over the wire are right, including at
// unaligned offsets that slice mid-frame.
func TestVectoredColdStreamZeroStagedCopies(t *testing.T) {
	const fileBlocks = 32
	for _, lay := range []string{"lfs", "ffs"} {
		t.Run(lay, func(t *testing.T) {
			cfg := Config{
				Path:        filepath.Join(t.TempDir(), "vec.img"),
				Blocks:      4096,
				CacheBlocks: 128,
				Layout:      lay,
				Seed:        11,
				// Whole-file flush jobs carry multi-block runs, so both
				// layouts issue gather writes, not just the LFS segments.
				Flush: cache.NVRAMWhole(24),
			}
			srv, err := Open(cfg)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			payload := make([]byte, fileBlocks*core.BlockSize+511)
			for i := range payload {
				payload[i] = byte(i>>8) ^ byte(i)
			}
			addr, err := srv.ServeNFS("127.0.0.1:0")
			if err != nil {
				t.Fatalf("serve: %v", err)
			}
			c, err := nfs.Dial(addr)
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			root, _, err := c.Mount(1)
			if err != nil {
				t.Fatalf("mount: %v", err)
			}
			fh, _, err := c.Create(root, "stream")
			if err != nil {
				t.Fatalf("create: %v", err)
			}
			for off := 0; off < len(payload); off += 4 * core.BlockSize {
				end := off + 4*core.BlockSize
				if end > len(payload) {
					end = len(payload)
				}
				if _, err := c.Write(fh, int64(off), payload[off:end]); err != nil {
					t.Fatalf("write at %d: %v", off, err)
				}
			}
			c.Close()
			if err := srv.Shutdown(); err != nil {
				t.Fatalf("shutdown: %v", err)
			}
			if got := srv.StagedCopyBytes(); got != 0 {
				t.Errorf("write path staged %d bytes through flat buffers, want 0", got)
			}
			if _, w := vecDriverCounts(srv); w == 0 {
				t.Error("no vectored write requests reached the devices")
			}

			// Cold read-back: a fresh server with an empty cache, so the
			// sequential sweep exercises the vectored demand-miss and
			// readahead fills and the borrowed-frame reply path.
			srv2, err := Open(cfg)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer srv2.Close()
			addr, err = srv2.ServeNFS("127.0.0.1:0")
			if err != nil {
				t.Fatalf("serve: %v", err)
			}
			c2, err := nfs.Dial(addr)
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer c2.Close()
			root, _, err = c2.Mount(1)
			if err != nil {
				t.Fatalf("mount: %v", err)
			}
			fh, _, err = c2.Lookup(root, "stream")
			if err != nil {
				t.Fatalf("lookup: %v", err)
			}
			// Unaligned chunks: every read slices frames mid-block on
			// both ends.
			chunk := 3*core.BlockSize + 7
			for off := 1; off < len(payload); off += chunk {
				n := chunk
				if off+n > len(payload) {
					n = len(payload) - off
				}
				got, err := c2.Read(fh, int64(off), n)
				if err != nil {
					t.Fatalf("read at %d: %v", off, err)
				}
				if !bytes.Equal(got, payload[off:off+n]) {
					t.Fatalf("read at %d: %d bytes came back wrong", off, n)
				}
			}
			if got := srv2.StagedCopyBytes(); got != 0 {
				t.Errorf("cold stream staged %d bytes through flat buffers, want 0", got)
			}
			if r, _ := vecDriverCounts(srv2); r == 0 {
				t.Error("no vectored read requests reached the devices")
			}
		})
	}
}

// TestPipelinedOverwritesZeroStagedCopies extends the zero-copy claim
// to concurrent pipelined clients overwriting random block-aligned
// runs: the flushes that carry them must gather from frames too, and
// every run must read back.
func TestPipelinedOverwritesZeroStagedCopies(t *testing.T) {
	for _, lay := range []string{"lfs", "ffs"} {
		t.Run(lay, func(t *testing.T) {
			srv, err := Open(Config{
				Path:        filepath.Join(t.TempDir(), "burst.img"),
				Blocks:      4096,
				CacheBlocks: 128,
				Layout:      lay,
				Seed:        11,
				Flush:       cache.NVRAMWhole(24),
			})
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer srv.Close()
			addr, err := srv.ServeNFS("127.0.0.1:0")
			if err != nil {
				t.Fatalf("serve: %v", err)
			}
			burstOverwrites(t, srv, addr)
			if got := srv.StagedCopyBytes(); got != 0 {
				t.Errorf("random overwrites staged %d bytes through flat buffers, want 0", got)
			}
		})
	}
}

// burstOverwrites prefills a file twice the cache, then has 4
// pipelined clients with 2 calls in flight each overwrite random
// 16 KB block-aligned runs of it. Each caller owns every 8th run, so
// the final contents are known; after a sync the whole file must read
// back.
func burstOverwrites(t *testing.T, srv *Server, addr string) {
	t.Helper()
	const (
		clients, depth = 4, 2
		callers        = clients * depth
		runBytes       = 4 * core.BlockSize
		runs           = 64
		opsPerCaller   = 32
	)
	want := make([]byte, runs*runBytes)
	setup, err := nfs.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer setup.Close()
	root, _, err := setup.Mount(1)
	if err != nil {
		t.Fatalf("mount: %v", err)
	}
	fh, _, err := setup.Create(root, "burst")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	for off := 0; off < len(want); off += runBytes {
		if _, err := setup.Write(fh, int64(off), want[off:off+runBytes]); err != nil {
			t.Fatalf("prefill at %d: %v", off, err)
		}
	}
	_, vecWrites := vecDriverCounts(srv)
	var wg sync.WaitGroup
	errc := make(chan error, callers)
	for c := 0; c < clients; c++ {
		cl, err := nfs.DialPipeline(addr, depth)
		if err != nil {
			t.Fatalf("dial pipeline: %v", err)
		}
		defer cl.Close()
		for w := 0; w < depth; w++ {
			caller := c*depth + w
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(caller)))
				for i := 0; i < opsPerCaller; i++ {
					off := (caller + callers*rng.Intn(runs/callers)) * runBytes
					data := want[off : off+runBytes]
					rng.Read(data)
					if _, err := cl.Write(fh, int64(off), data); err != nil {
						errc <- fmt.Errorf("caller %d: write at %d: %w", caller, off, err)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if err := srv.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if _, w := vecDriverCounts(srv); w == vecWrites {
		t.Error("the overwrites reached the devices without a vectored write")
	}
	for off := 0; off < len(want); off += runBytes {
		got, err := setup.Read(fh, int64(off), runBytes)
		if err != nil {
			t.Fatalf("read back at %d: %v", off, err)
		}
		if !bytes.Equal(got, want[off:off+runBytes]) {
			t.Fatalf("read back at %d: run came back wrong", off)
		}
	}
}

// TestVectoredFramePinningHammer races streaming vectored reads —
// whose cache frames stay loaned to in-flight device requests and
// socket writes — against truncation, removal, recreation, sync and
// scrub of the same file. Under -race this certifies the loan
// accounting: a borrowed frame must never be reused, freed or
// truncated away while a scatter-gather request or a writev still
// references its memory.
func TestVectoredFramePinningHammer(t *testing.T) {
	if testing.Short() {
		t.Skip("hammer test in -short mode")
	}
	const (
		fileBlocks = 24
		readers    = 3
		rounds     = 40
	)
	srv, err := Open(Config{
		Path:        filepath.Join(t.TempDir(), "pin.img"),
		Blocks:      4096,
		CacheBlocks: 64, // small: readers and refills fight for frames
		Layout:      "lfs",
		Seed:        13,
		Volumes:     2,
		Placement:   "mirrored", // scrub needs redundancy to compare
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer srv.Close()
	addr, err := srv.ServeNFS("127.0.0.1:0")
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	payload := bytes.Repeat([]byte{0x5A}, fileBlocks*core.BlockSize)
	write := func(c *nfs.Client, dir nfs.FH, name string) error {
		fh, _, err := c.Create(dir, name)
		if err != nil {
			return err
		}
		for off := 0; off < len(payload); off += 8 * core.BlockSize {
			if _, err := c.Write(fh, int64(off), payload[off:off+8*core.BlockSize]); err != nil {
				return err
			}
		}
		return nil
	}
	c0, err := nfs.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	root, _, err := c0.Mount(1)
	if err != nil {
		t.Fatalf("mount: %v", err)
	}
	if err := write(c0, root, "victim"); err != nil {
		t.Fatalf("seed write: %v", err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, readers+3)
	// Readers: stream the file sequentially, over and over. The file
	// shrinks, vanishes and reappears underneath them — short reads
	// and lookup failures are expected; data races and lost frames are
	// not.
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := nfs.Dial(addr)
			if err != nil {
				errs <- fmt.Errorf("reader %d: dial: %w", id, err)
				return
			}
			defer c.Close()
			r, _, err := c.Mount(1)
			if err != nil {
				errs <- fmt.Errorf("reader %d: mount: %w", id, err)
				return
			}
			for n := 0; n < rounds; n++ {
				fh, _, err := c.Lookup(r, "victim")
				if err != nil {
					continue // removed out from under us
				}
				for off := int64(0); off < int64(len(payload)); off += 3*core.BlockSize + 1 {
					got, err := c.Read(fh, off, 3*core.BlockSize+1)
					if err != nil {
						break // truncated or removed mid-stream
					}
					for _, b := range got {
						// A truncate-then-regrow racing a recreate can
						// legitimately expose zero-filled holes; any
						// OTHER byte means a loaned frame was reused.
						if b != 0x5A && b != 0 {
							errs <- fmt.Errorf("reader %d: byte %#x surfaced in victim", id, b)
							return
						}
					}
				}
			}
		}(i)
	}
	// Truncator: shrink and regrow.
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := nfs.Dial(addr)
		if err != nil {
			errs <- fmt.Errorf("truncator: dial: %w", err)
			return
		}
		defer c.Close()
		r, _, err := c.Mount(1)
		if err != nil {
			errs <- fmt.Errorf("truncator: mount: %w", err)
			return
		}
		for n := 0; n < rounds; n++ {
			fh, _, err := c.Lookup(r, "victim")
			if err != nil {
				continue
			}
			if _, err := c.SetSize(fh, 2*core.BlockSize); err != nil {
				continue
			}
			for off := 0; off < len(payload); off += 8 * core.BlockSize {
				if _, err := c.Write(fh, int64(off), payload[off:off+8*core.BlockSize]); err != nil {
					break
				}
			}
		}
	}()
	// Remover: delete and recreate the whole file.
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := nfs.Dial(addr)
		if err != nil {
			errs <- fmt.Errorf("remover: dial: %w", err)
			return
		}
		defer c.Close()
		r, _, err := c.Mount(1)
		if err != nil {
			errs <- fmt.Errorf("remover: mount: %w", err)
			return
		}
		for n := 0; n < rounds/2; n++ {
			if err := c.Remove(r, "victim"); err != nil {
				continue
			}
			if err := write(c, r, "victim"); err != nil {
				errs <- fmt.Errorf("remover: recreate: %w", err)
				return
			}
		}
	}()
	// Syncer+scrubber: force flusher activity (vectored segment and
	// run writes pin frames too) and walk the array behind it all.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; n < rounds/2; n++ {
			if err := srv.Sync(); err != nil {
				errs <- fmt.Errorf("sync: %w", err)
				return
			}
			if _, err := srv.Scrub(false); err != nil {
				errs <- fmt.Errorf("scrub: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// The server must still be fully functional: a fresh write after
	// the storm reads back exactly, and the array scrubs clean.
	if err := write(c0, root, "after"); err != nil {
		t.Fatalf("post-storm write: %v", err)
	}
	if err := srv.Sync(); err != nil {
		t.Fatalf("final sync: %v", err)
	}
	fh, _, err := c0.Lookup(root, "after")
	if err != nil {
		t.Fatalf("final lookup: %v", err)
	}
	for off := 0; off < len(payload); off += 4 * core.BlockSize {
		got, err := c0.Read(fh, int64(off), 4*core.BlockSize)
		if err != nil {
			t.Fatalf("final read at %d: %v", off, err)
		}
		if !bytes.Equal(got, payload[off:off+4*core.BlockSize]) {
			t.Fatalf("final read at %d came back wrong", off)
		}
	}
	st, err := srv.Scrub(false)
	if err != nil {
		t.Fatalf("final scrub: %v", err)
	}
	if st.Mismatches != 0 {
		t.Fatalf("final scrub found %d mismatches", st.Mismatches)
	}
	c0.Close()
}
