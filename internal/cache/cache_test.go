package cache

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
)

// FlushFile synchronously writes every dirty block of (vol, file),
// shard by shard.
func (c *Cache) FlushFile(t sched.Task, vol core.VolumeID, file core.FileID) {
	if c.off.Load() {
		return
	}
	fk := FileKey{vol, file}
	for _, sh := range c.shards {
		sh.mu.Lock(t)
		// The file's flushing blocks stay on the dirty list until their
		// flush lands, so a zero count means the file is clean.
		for sh.files[fk].dirty > 0 {
			// Enqueue the lowest flushable block; whole-file policies
			// grab the rest of the file with it.
			var pick *Block
			for b := sh.files[fk].head; b != nil; b = b.fnext {
				if b.flushable() && (pick == nil || b.Key.Blk < pick.Key.Blk) {
					pick = b
				}
			}
			if pick != nil {
				sh.enqueueFlushLocked(pick)
			}
			sh.await(t, wCleaned)
		}
		sh.mu.Unlock(t)
	}
}

// fakeStore records flushed blocks and optionally delays, playing
// the role of the storage layout beneath the cache.
type fakeStore struct {
	k       sched.Kernel
	delay   time.Duration
	flushed []core.BlockKey
	jobs    int
}

func (s *fakeStore) FlushBlocks(t sched.Task, blocks []*Block) error {
	if s.delay > 0 {
		t.Sleep(s.delay)
	}
	s.jobs++
	for _, b := range blocks {
		s.flushed = append(s.flushed, b.Key)
	}
	return nil
}

func key(f core.FileID, b core.BlockNo) core.BlockKey {
	return core.BlockKey{Vol: 1, File: f, Blk: b}
}

// newTestCache builds a simulated cache on a fresh virtual kernel.
func newTestCache(seed int64, blocks int, fc FlushConfig) (*sched.VKernel, *Cache, *fakeStore) {
	k := sched.NewVirtual(seed)
	st := &fakeStore{k: k, delay: 5 * time.Millisecond}
	c := New(k, Config{Blocks: blocks, Flush: fc, Simulated: true}, st)
	c.Start()
	return k, c, st
}

// run executes body as a task and drives the kernel to completion
// or until body stops it.
func run(t *testing.T, k *sched.VKernel, body func(tk sched.Task)) {
	t.Helper()
	k.Go("test", func(tk sched.Task) {
		body(tk)
		k.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// fill writes n dirty blocks of file f through the cache.
func fill(tk sched.Task, c *Cache, f core.FileID, n int) {
	for i := 0; i < n; i++ {
		b, hit := c.GetBlock(tk, key(f, core.BlockNo(i)))
		if !hit {
			c.Filled(tk, b, core.BlockSize)
		}
		c.MarkDirty(tk, b)
		c.Release(tk, b)
	}
}

func TestMissThenHit(t *testing.T) {
	k, c, _ := newTestCache(1, 16, UPS())
	run(t, k, func(tk sched.Task) {
		b, hit := c.GetBlock(tk, key(1, 0))
		if hit {
			t.Error("first access hit")
		}
		c.Filled(tk, b, 100)
		c.Release(tk, b)
		b2, hit2 := c.GetBlock(tk, key(1, 0))
		if !hit2 {
			t.Error("second access missed")
		}
		if b2 != b || b2.Size != 100 {
			t.Error("hit returned different frame or size")
		}
		c.Release(tk, b2)
	})
	st := c.CacheStats()
	if st.Lookups.Value() != 2 || st.Hits.Value() != 1 {
		t.Fatalf("lookups=%d hits=%d", st.Lookups.Value(), st.Hits.Value())
	}
}

func TestConcurrentMissWaitsForFiller(t *testing.T) {
	k, c, _ := newTestCache(2, 16, UPS())
	order := []string{}
	k.Go("filler", func(tk sched.Task) {
		b, hit := c.GetBlock(tk, key(1, 0))
		if hit {
			t.Error("filler hit")
		}
		tk.Sleep(10 * time.Millisecond) // simulated disk read
		order = append(order, "filled")
		c.Filled(tk, b, core.BlockSize)
		c.Release(tk, b)
	})
	k.Go("waiter", func(tk sched.Task) {
		tk.Sleep(time.Millisecond) // ensure filler goes first
		b, hit := c.GetBlock(tk, key(1, 0))
		if !hit {
			t.Error("waiter should hit after filler completes")
		}
		order = append(order, "waited")
		c.Release(tk, b)
		k.Stop() // daemons (flusher) would otherwise idle forever
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "filled" {
		t.Fatalf("order = %v", order)
	}
}

func TestFillFailedRetries(t *testing.T) {
	k, c, _ := newTestCache(3, 16, UPS())
	run(t, k, func(tk sched.Task) {
		b, _ := c.GetBlock(tk, key(1, 0))
		c.FillFailed(tk, b)
		b2, hit := c.GetBlock(tk, key(1, 0))
		if hit {
			t.Error("hit after failed fill")
		}
		c.Filled(tk, b2, core.BlockSize)
		c.Release(tk, b2)
	})
}

func TestEvictionLRUOrder(t *testing.T) {
	k, c, _ := newTestCache(4, 4, UPS())
	run(t, k, func(tk sched.Task) {
		for i := 0; i < 4; i++ {
			b, _ := c.GetBlock(tk, key(1, core.BlockNo(i)))
			c.Filled(tk, b, core.BlockSize)
			c.Release(tk, b)
		}
		// Touch block 0 so block 1 is the LRU victim.
		b, hit := c.GetBlock(tk, key(1, 0))
		if !hit {
			t.Fatal("warm block missed")
		}
		c.Release(tk, b)
		// Insert a 5th block, forcing one eviction.
		b5, _ := c.GetBlock(tk, key(1, 100))
		c.Filled(tk, b5, core.BlockSize)
		c.Release(tk, b5)
		if !c.Peek(tk, key(1, 0)) {
			t.Error("recently used block evicted")
		}
		if c.Peek(tk, key(1, 1)) {
			t.Error("LRU block survived")
		}
	})
	if c.CacheStats().Evictions.Value() != 1 {
		t.Fatalf("evictions = %d", c.CacheStats().Evictions.Value())
	}
}

func TestDirtyBlocksNotEvicted(t *testing.T) {
	k, c, store := newTestCache(5, 4, UPS())
	run(t, k, func(tk sched.Task) {
		fill(tk, c, 1, 4) // all four blocks dirty
		// A fifth allocation must flush, not evict dirty data.
		b, _ := c.GetBlock(tk, key(2, 0))
		c.Filled(tk, b, core.BlockSize)
		c.Release(tk, b)
	})
	if len(store.flushed) == 0 {
		t.Fatal("allocation pressure flushed nothing")
	}
	if c.CacheStats().PressureWaits.Value() == 0 {
		t.Fatal("pressure wait not counted")
	}
}

func TestUPSKeepsDirtyUntilPressure(t *testing.T) {
	k, c, store := newTestCache(6, 32, UPS())
	run(t, k, func(tk sched.Task) {
		fill(tk, c, 1, 8)
		tk.Sleep(5 * time.Minute) // far past any update-daemon age
	})
	if len(store.flushed) != 0 {
		t.Fatalf("UPS flushed %d blocks with no pressure", len(store.flushed))
	}
	if c.DirtyCount() != 8 {
		t.Fatalf("dirty count = %d, want 8", c.DirtyCount())
	}
}

func TestWriteDelayFlushesAfter30s(t *testing.T) {
	k, c, store := newTestCache(7, 32, WriteDelay())
	run(t, k, func(tk sched.Task) {
		fill(tk, c, 1, 4)
		tk.Sleep(29 * time.Second)
		if len(store.flushed) != 0 {
			t.Errorf("flushed %d blocks before 30s", len(store.flushed))
		}
		tk.Sleep(15 * time.Second) // past 30s + scan interval
		if len(store.flushed) != 4 {
			t.Errorf("flushed %d blocks after 30s, want 4", len(store.flushed))
		}
	})
}

func TestWriteDelayFlushesWholeFile(t *testing.T) {
	k, c, store := newTestCache(8, 64, WriteDelay())
	run(t, k, func(tk sched.Task) {
		fill(tk, c, 1, 3)
		fill(tk, c, 2, 3)
		tk.Sleep(40 * time.Second)
	})
	if len(store.flushed) != 6 {
		t.Fatalf("flushed %d, want 6", len(store.flushed))
	}
	// Whole-file granularity: each job contains one file's blocks,
	// so 2 jobs (possibly more if the daemon raced, but never 6).
	if store.jobs > 3 {
		t.Fatalf("%d flush jobs for 2 files; whole-file grouping broken", store.jobs)
	}
}

func TestNVRAMLimitBlocksWriters(t *testing.T) {
	// 4-block NVRAM: the 5th dirty block must wait for a flush.
	k, c, store := newTestCache(9, 32, NVRAMPartial(4))
	run(t, k, func(tk sched.Task) {
		fill(tk, c, 1, 8)
	})
	if c.CacheStats().NVRAMWaits.Value() == 0 {
		t.Fatal("no NVRAM waits recorded")
	}
	if len(store.flushed) < 4 {
		t.Fatalf("flushed %d, want >=4", len(store.flushed))
	}
	if c.DirtyCount() > 4 {
		t.Fatalf("dirty %d exceeds NVRAM limit 4", c.DirtyCount())
	}
}

func TestNVRAMWholeFileDrainsFaster(t *testing.T) {
	// Whole-file flushing should need fewer flush jobs than
	// partial-file for the same workload.
	var jobsWhole, jobsPartial int
	{
		k, c, store := newTestCache(10, 64, NVRAMWhole(4))
		run(t, k, func(tk sched.Task) { fill(tk, c, 1, 16) })
		jobsWhole = store.jobs
	}
	{
		k, c, store := newTestCache(10, 64, NVRAMPartial(4))
		run(t, k, func(tk sched.Task) { fill(tk, c, 1, 16) })
		jobsPartial = store.jobs
	}
	if jobsWhole >= jobsPartial {
		t.Fatalf("whole-file jobs %d >= partial %d", jobsWhole, jobsPartial)
	}
}

func TestOverwriteInPlaceSavesNothingToDisk(t *testing.T) {
	k, c, store := newTestCache(11, 16, UPS())
	run(t, k, func(tk sched.Task) {
		for rep := 0; rep < 10; rep++ {
			fill(tk, c, 1, 2) // same 2 blocks overwritten 10 times
		}
	})
	if len(store.flushed) != 0 {
		t.Fatalf("overwrites reached disk: %d", len(store.flushed))
	}
	if c.DirtyCount() != 2 {
		t.Fatalf("dirty = %d, want 2", c.DirtyCount())
	}
}

func TestDiscardFileSavesWrites(t *testing.T) {
	k, c, store := newTestCache(12, 16, UPS())
	run(t, k, func(tk sched.Task) {
		fill(tk, c, 1, 5)
		saved := c.DiscardFile(tk, 1, 1, 0)
		if saved != 5 {
			t.Errorf("saved = %d, want 5", saved)
		}
	})
	if len(store.flushed) != 0 {
		t.Fatal("discarded blocks were flushed")
	}
	if c.CacheStats().SavedWrites.Value() != 5 {
		t.Fatalf("saved_writes = %d", c.CacheStats().SavedWrites.Value())
	}
	if c.DirtyCount() != 0 {
		t.Fatal("dirty blocks remain after discard")
	}
}

func TestDiscardFileFromBlock(t *testing.T) {
	// Truncate semantics: only blocks >= fromBlk go.
	k, c, _ := newTestCache(13, 16, UPS())
	run(t, k, func(tk sched.Task) {
		fill(tk, c, 1, 6)
		saved := c.DiscardFile(tk, 1, 1, 3)
		if saved != 3 {
			t.Errorf("saved = %d, want 3", saved)
		}
		if !c.Peek(tk, key(1, 2)) || c.Peek(tk, key(1, 4)) {
			t.Error("truncate boundary wrong")
		}
	})
}

func TestFlushFileSync(t *testing.T) {
	k, c, store := newTestCache(14, 32, UPS())
	run(t, k, func(tk sched.Task) {
		fill(tk, c, 1, 4)
		fill(tk, c, 2, 2)
		c.FlushFile(tk, 1, 1)
		if c.DirtyCount() != 2 {
			t.Errorf("dirty after FlushFile = %d, want 2 (file 2)", c.DirtyCount())
		}
	})
	if len(store.flushed) != 4 {
		t.Fatalf("flushed %d, want 4", len(store.flushed))
	}
}

func TestFlushAll(t *testing.T) {
	k, c, store := newTestCache(15, 32, UPS())
	run(t, k, func(tk sched.Task) {
		fill(tk, c, 1, 4)
		fill(tk, c, 2, 4)
		c.FlushAll(tk)
		if c.DirtyCount() != 0 {
			t.Errorf("dirty after FlushAll = %d", c.DirtyCount())
		}
	})
	if len(store.flushed) != 8 {
		t.Fatalf("flushed %d, want 8", len(store.flushed))
	}
}

func TestRedirtyDuringFlushWaits(t *testing.T) {
	k, c, _ := newTestCache(16, 8, UPS())
	run(t, k, func(tk sched.Task) {
		fill(tk, c, 1, 1)
		// Start a sync flush in another task, then immediately
		// re-dirty: MarkDirty must wait for flush stability.
		done := false
		k.Go("flusher-caller", func(tk2 sched.Task) {
			c.FlushFile(tk2, 1, 1)
			done = true
		})
		tk.Sleep(time.Millisecond) // let the flush start
		b, _ := c.GetBlock(tk, key(1, 0))
		c.MarkDirty(tk, b) // must block until flush finishes
		if !done {
			t.Error("MarkDirty returned while flush in flight")
		}
		c.Release(tk, b)
	})
}

func TestNoCacheDropBehind(t *testing.T) {
	k, c, _ := newTestCache(17, 8, UPS())
	run(t, k, func(tk sched.Task) {
		b, _ := c.GetBlock(tk, key(1, 0))
		b.NoCache = true
		c.Filled(tk, b, core.BlockSize)
		c.Release(tk, b)
		if c.Peek(tk, key(1, 0)) {
			t.Error("NoCache block retained after release")
		}
	})
}

func TestDirtyHighWaterTracked(t *testing.T) {
	k, c, _ := newTestCache(18, 32, UPS())
	run(t, k, func(tk sched.Task) { fill(tk, c, 1, 10) })
	if c.CacheStats().DirtyHW.Value() != 10 {
		t.Fatalf("high water = %d, want 10", c.CacheStats().DirtyHW.Value())
	}
}

func TestStatsRegister(t *testing.T) {
	k, c, _ := newTestCache(19, 8, UPS())
	_ = k
	if c.String() == "" || c.Policy().Name != "ups" {
		t.Fatal("descriptions wrong")
	}
}

func TestRealKernelCacheSmoke(t *testing.T) {
	// The same cache code must run on the real kernel.
	k := sched.NewReal(1)
	st := &fakeStore{k: k}
	c := New(k, Config{Blocks: 16, Flush: UPS(), Simulated: false}, st)
	c.Start()
	done := make(chan struct{})
	k.Go("user", func(tk sched.Task) {
		defer close(done)
		for i := 0; i < 8; i++ {
			b, hit := c.GetBlock(tk, key(1, core.BlockNo(i)))
			if !hit {
				copy(b.Data, []byte{byte(i)})
				c.Filled(tk, b, core.BlockSize)
			}
			c.MarkDirty(tk, b)
			c.Release(tk, b)
		}
		c.FlushAll(tk)
	})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("real-kernel cache timed out")
	}
	if len(st.flushed) != 8 {
		t.Fatalf("flushed %d, want 8", len(st.flushed))
	}
}

// TestRealKernelRandomReplacementConcurrent misses concurrently in a
// four-shard real-kernel cache under random replacement: every shard's
// policy draws from the kernel's one random source, so under -race an
// unguarded source shows as a data race between shards' victim picks.
func TestRealKernelRandomReplacementConcurrent(t *testing.T) {
	k := sched.NewReal(1)
	c := New(k, Config{Blocks: 16, Shards: 4, Replace: "random", Flush: UPS()}, &fakeStore{k: k})
	c.Start()
	var wg sync.WaitGroup
	for w := 1; w <= 4; w++ {
		wg.Add(1)
		k.Go(fmt.Sprintf("reader%d", w), func(tk sched.Task) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b, hit := c.GetBlock(tk, key(core.FileID(w), core.BlockNo(i)))
				if !hit {
					c.Filled(tk, b, core.BlockSize)
				}
				c.Release(tk, b)
			}
		})
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("concurrent readers timed out")
	}
	if ev := c.CacheStats().Evictions.Value(); ev == 0 {
		t.Fatal("no evictions: the replacement policy never ran")
	}
}
