package fsys

import (
	"bytes"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/ffs"
	"repro/internal/layout"
	"repro/internal/lfs"
	"repro/internal/sched"
)

// slowLay charges simulated disk time per data-block read, so
// readahead has something to overlap with.
type slowLay struct {
	layout.Layout
	reads int
}

func (s *slowLay) ReadRunVec(t sched.Task, ino *layout.Inode, blk core.BlockNo, n int, bufs [][]byte) (int, error) {
	s.reads++
	t.Sleep(8e6) // 8 ms per request, however many blocks it carries
	return s.Layout.ReadRunVec(t, ino, blk, n, bufs)
}

// raRig assembles a virtual-kernel fsys over the slow layout.
type raRig struct {
	k   *sched.VKernel
	c   *cache.Cache
	fs  *FS
	lay *slowLay
}

func newRARig(t *testing.T, seed int64, cacheBlocks int, fc cache.FlushConfig, ra int) *raRig {
	t.Helper()
	k := sched.NewVirtual(seed)
	part := layout.NewPartition(nullDrv{k, 8192}, 0, 0, 8192, true)
	lay := &slowLay{Layout: lfs.New(k, "simvol", part, lfs.DefaultConfig())}
	store := NewStore()
	c := cache.New(k, cache.Config{Blocks: cacheBlocks, Replace: "lru", Flush: fc, Simulated: true}, store)
	fs := New(k, c, core.DefaultSimMover())
	store.Bind(fs)
	c.Start()
	fs.SetReadahead(ra)
	return &raRig{k: k, c: c, fs: fs, lay: lay}
}

func (r *raRig) run(t *testing.T, body func(tk sched.Task, v *Volume)) {
	t.Helper()
	r.k.Go("test", func(tk sched.Task) {
		defer r.k.Stop()
		r.lay.Format(tk)
		r.lay.Mount(tk)
		v, err := r.fs.AddVolume(tk, 1, r.lay, true)
		if err != nil {
			t.Errorf("AddVolume: %v", err)
			return
		}
		body(tk, v)
	})
	if err := r.k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// prepare writes a file of n blocks and flushes it, so reads are
// cold demand misses.
func prepare(t *testing.T, tk sched.Task, v *Volume, n int64) *Handle {
	t.Helper()
	h, err := v.EnsureFile(tk, "/stream", 0, false)
	if err != nil {
		t.Fatalf("EnsureFile: %v", err)
	}
	if err := v.WriteAt(tk, h, 0, nil, n*core.BlockSize); err != nil {
		t.Fatalf("prefill: %v", err)
	}
	if err := v.fs.SyncAll(tk); err != nil {
		t.Fatalf("sync: %v", err)
	}
	// Drop the now-clean blocks so reads are cold demand misses.
	v.fs.cache.DiscardFile(tk, v.ID, h.ID(), 0)
	return h
}

// Sequential reads trigger readahead, and the pre-filled blocks are
// demand hits — the stream overlaps with the simulated disk.
func TestReadaheadSequentialHits(t *testing.T) {
	r := newRARig(t, 1, 256, cache.UPS(), 8)
	r.run(t, func(tk sched.Task, v *Volume) {
		h := prepare(t, tk, v, 64)
		for off := int64(0); off < 64*core.BlockSize; off += 4 * core.BlockSize {
			if _, err := v.ReadAt(tk, h, off, nil, 4*core.BlockSize); err != nil {
				t.Fatalf("read: %v", err)
			}
			tk.Sleep(40e6) // client think time: disk idle to work ahead into
		}
		cs := r.c.CacheStats()
		if cs.ReadaheadFills.Value() == 0 {
			t.Fatal("no readahead fills issued")
		}
		if r.fs.FSStats().Readaheads.Value() == 0 {
			t.Fatal("no readahead batches recorded")
		}
		// Everything past the detection window should be a hit.
		if hits := cs.Hits.Value(); hits < 48 {
			t.Fatalf("hits = %d, want most of the stream", hits)
		}
		v.Close(tk, h)
	})
}

// Clustered readahead over a real data stack: the batches must
// arrive as multi-block device requests, and every byte the client
// streams must be exact — the run is read into a staging buffer and
// distributed into cache frames, so this pins the distribution path.
func TestReadaheadClustered(t *testing.T) {
	k := sched.NewVirtual(7)
	drv := device.NewMemDriver(k, "mem0", 4096, nil)
	part := layout.NewPartition(drv, 0, 0, 4096, false)
	lay := ffs.New(k, "vol0", part, ffs.Config{BlocksPerGroup: 1024, InodesPerGroup: 64})
	lay.SetClusterRun(8)
	store := NewStore()
	c := cache.New(k, cache.Config{Blocks: 128, Replace: "lru", Flush: cache.UPS(), ShardChunk: 8}, store)
	fs := New(k, c, core.RealMover{})
	store.Bind(fs)
	c.Start()
	fs.SetReadahead(8)
	const blocks = 64
	k.Go("test", func(tk sched.Task) {
		defer k.Stop()
		if err := lay.Format(tk); err != nil {
			t.Errorf("format: %v", err)
			return
		}
		if err := lay.Mount(tk); err != nil {
			t.Errorf("mount: %v", err)
			return
		}
		v, err := fs.AddVolume(tk, 1, lay, false)
		if err != nil {
			t.Errorf("AddVolume: %v", err)
			return
		}
		h, err := v.EnsureFile(tk, "/stream", 0, false)
		if err != nil {
			t.Fatalf("EnsureFile: %v", err)
		}
		payload := make([]byte, blocks*core.BlockSize)
		for i := range payload {
			payload[i] = byte(i / 7)
		}
		if err := v.WriteAt(tk, h, 0, payload, int64(len(payload))); err != nil {
			t.Fatalf("prefill: %v", err)
		}
		if err := fs.SyncAll(tk); err != nil {
			t.Fatalf("sync: %v", err)
		}
		c.DiscardFile(tk, v.ID, h.ID(), 0)

		reqBefore := drv.DriverStats().Reads.Value()
		blkBefore := drv.DriverStats().BlocksRead.Value()
		got := make([]byte, len(payload))
		for off := int64(0); off < int64(len(payload)); off += 4 * core.BlockSize {
			if _, err := v.ReadAt(tk, h, off, got[off:off+4*core.BlockSize], 4*core.BlockSize); err != nil {
				t.Fatalf("read: %v", err)
			}
			tk.Sleep(20e6)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("streamed bytes corrupt under clustered readahead")
		}
		reqs := drv.DriverStats().Reads.Value() - reqBefore
		blks := drv.DriverStats().BlocksRead.Value() - blkBefore
		if c.CacheStats().ReadaheadFills.Value() == 0 {
			t.Fatal("no readahead fills issued")
		}
		if reqs == 0 || float64(blks)/float64(reqs) < 2 {
			t.Fatalf("readahead did not cluster: %d blocks in %d requests", blks, reqs)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// Random reads never trigger readahead.
func TestReadaheadNotOnRandom(t *testing.T) {
	r := newRARig(t, 2, 256, cache.UPS(), 8)
	r.run(t, func(tk sched.Task, v *Volume) {
		h := prepare(t, tk, v, 64)
		for _, blk := range []int64{40, 3, 17, 60, 9, 33, 50, 1} {
			if _, err := v.ReadAt(tk, h, blk*core.BlockSize, nil, core.BlockSize); err != nil {
				t.Fatalf("read: %v", err)
			}
		}
		if got := r.c.CacheStats().ReadaheadFills.Value(); got != 0 {
			t.Fatalf("random reads issued %d readahead fills", got)
		}
		v.Close(tk, h)
	})
}

// The satellite regression: under an NVRAM write policy, readahead
// must not evict or flush dirty blocks — the NVRAM residency
// accounting stays exact with readahead on.
func TestReadaheadKeepsNVRAMResidency(t *testing.T) {
	// 32-frame cache, 16-block NVRAM bound, readahead on.
	r := newRARig(t, 3, 32, cache.NVRAMPartial(16), 8)
	r.run(t, func(tk sched.Task, v *Volume) {
		h := prepare(t, tk, v, 96)
		// Dirty exactly the NVRAM bound through a second file.
		hw, err := v.EnsureFile(tk, "/dirty", 0, false)
		if err != nil {
			t.Fatalf("EnsureFile: %v", err)
		}
		if err := v.WriteAt(tk, hw, 0, nil, 16*core.BlockSize); err != nil {
			t.Fatalf("dirty writes: %v", err)
		}
		cs := r.c.CacheStats()
		flushedBefore := cs.FlushedBlocks.Value()
		dirtyBefore := r.c.DirtyCount()
		if dirtyBefore == 0 {
			t.Fatal("setup made no dirty blocks")
		}
		// Stream the cold file with readahead on: fills compete for
		// the few clean frames but must never push dirty data out.
		for off := int64(0); off < 96*core.BlockSize; off += 4 * core.BlockSize {
			if _, err := v.ReadAt(tk, h, off, nil, 4*core.BlockSize); err != nil {
				t.Fatalf("read: %v", err)
			}
			tk.Sleep(40e6)
		}
		if got := r.c.DirtyCount(); got != dirtyBefore {
			t.Fatalf("dirty residency moved: %d -> %d", dirtyBefore, got)
		}
		if got := cs.FlushedBlocks.Value(); got != flushedBefore {
			t.Fatalf("readahead flushed %d blocks", got-flushedBefore)
		}
		for i := int64(0); i < 16; i++ {
			if !r.c.Peek(tk, core.BlockKey{Vol: 1, File: hw.ID(), Blk: core.BlockNo(i)}) {
				t.Fatalf("dirty block %d lost residency", i)
			}
		}
		v.Close(tk, h)
		v.Close(tk, hw)
	})
}

// Truncate while a readahead batch is in flight: the fence drains
// the batch first, so no stale fill reappears past the boundary.
func TestReadaheadTruncateFence(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		r := newRARig(t, seed, 256, cache.UPS(), 8)
		r.run(t, func(tk sched.Task, v *Volume) {
			h := prepare(t, tk, v, 64)
			// Two sequential reads arm the detector and launch a
			// batch past block 8.
			for off := int64(0); off < 8*core.BlockSize; off += 4 * core.BlockSize {
				if _, err := v.ReadAt(tk, h, off, nil, 4*core.BlockSize); err != nil {
					t.Fatalf("read: %v", err)
				}
			}
			// Truncate mid-batch (no think time: the batch is still
			// in flight).
			if err := v.Truncate(tk, h, 4*core.BlockSize); err != nil {
				t.Fatalf("truncate: %v", err)
			}
			for blk := core.BlockNo(4); blk < 64; blk++ {
				if r.c.Peek(tk, core.BlockKey{Vol: 1, File: h.ID(), Blk: blk}) {
					t.Fatalf("seed %d: stale block %d resident after truncate", seed, blk)
				}
			}
			// The file still works.
			if err := v.WriteAt(tk, h, 0, nil, 6*core.BlockSize); err != nil {
				t.Fatalf("write after truncate: %v", err)
			}
			v.Close(tk, h)
		})
	}
}

// Delete while a readahead batch is in flight: destroy fences and
// discards, so a recycled inode id (FFS-style) can never see the
// dead file's blocks.
func TestReadaheadDeleteFence(t *testing.T) {
	r := newRARig(t, 5, 256, cache.UPS(), 8)
	r.run(t, func(tk sched.Task, v *Volume) {
		h := prepare(t, tk, v, 64)
		id := h.ID()
		for off := int64(0); off < 8*core.BlockSize; off += 4 * core.BlockSize {
			if _, err := v.ReadAt(tk, h, off, nil, 4*core.BlockSize); err != nil {
				t.Fatalf("read: %v", err)
			}
		}
		v.Close(tk, h)
		if err := v.Remove(tk, "/stream"); err != nil {
			t.Fatalf("remove: %v", err)
		}
		for blk := core.BlockNo(0); blk < 64; blk++ {
			if r.c.Peek(tk, core.BlockKey{Vol: 1, File: id, Blk: blk}) {
				t.Fatalf("dead file block %d still resident", blk)
			}
		}
	})
}
