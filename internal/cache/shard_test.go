package cache

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
)

// newShardedCache builds a simulated sharded cache on a fresh
// virtual kernel.
func newShardedCache(seed int64, blocks, shards int, fc FlushConfig) (*sched.VKernel, *Cache, *fakeStore) {
	k := sched.NewVirtual(seed)
	st := &fakeStore{k: k, delay: 5 * time.Millisecond}
	c := New(k, Config{Blocks: blocks, Flush: fc, Simulated: true, Shards: shards}, st)
	c.Start()
	return k, c, st
}

func TestShardedBasicOps(t *testing.T) {
	k, c, _ := newShardedCache(1, 64, 4, UPS())
	if c.Shards() != 4 {
		t.Fatalf("shards = %d", c.Shards())
	}
	run(t, k, func(tk sched.Task) {
		// Blocks 0..15 land on every shard (blk % 4).
		for i := 0; i < 16; i++ {
			b, hit := c.GetBlock(tk, key(1, core.BlockNo(i)))
			if hit {
				t.Errorf("block %d: unexpected hit", i)
			}
			c.Filled(tk, b, core.BlockSize)
			c.Release(tk, b)
		}
		for i := 0; i < 16; i++ {
			b, hit := c.GetBlock(tk, key(1, core.BlockNo(i)))
			if !hit {
				t.Errorf("block %d: expected hit", i)
			}
			c.Release(tk, b)
		}
		if got := c.CacheStats().Hits.Value(); got != 16 {
			t.Errorf("hits = %d, want 16", got)
		}
	})
}

func TestShardedDirtyAcrossShards(t *testing.T) {
	k, c, st := newShardedCache(2, 64, 4, UPS())
	run(t, k, func(tk sched.Task) {
		fill(tk, c, 7, 16) // file 7, blocks 0..15: 4 dirty per shard
		if c.DirtyCount() != 16 {
			t.Fatalf("dirty = %d, want 16", c.DirtyCount())
		}
		// FlushFile must find the file's blocks in every shard.
		c.FlushFile(tk, 1, 7)
		if c.DirtyCount() != 0 {
			t.Fatalf("dirty after FlushFile = %d", c.DirtyCount())
		}
		if len(st.flushed) != 16 {
			t.Fatalf("flushed %d blocks", len(st.flushed))
		}
	})
}

func TestShardedDiscardFile(t *testing.T) {
	k, c, _ := newShardedCache(3, 64, 4, UPS())
	run(t, k, func(tk sched.Task) {
		fill(tk, c, 9, 12)
		saved := c.DiscardFile(tk, 1, 9, 0)
		if saved != 12 {
			t.Fatalf("saved = %d, want 12", saved)
		}
		if c.DirtyCount() != 0 {
			t.Fatalf("dirty after discard = %d", c.DirtyCount())
		}
		if c.CacheStats().SavedWrites.Value() != 12 {
			t.Fatalf("saved writes = %d", c.CacheStats().SavedWrites.Value())
		}
	})
}

func TestShardedFlushAll(t *testing.T) {
	k, c, st := newShardedCache(4, 64, 8, UPS())
	run(t, k, func(tk sched.Task) {
		fill(tk, c, 3, 24)
		c.FlushAll(tk)
		if c.DirtyCount() != 0 || len(st.flushed) != 24 {
			t.Fatalf("dirty=%d flushed=%d", c.DirtyCount(), len(st.flushed))
		}
	})
}

// A width-1 "sharded" cache must behave exactly like the classic
// cache: same counters for the same access pattern.
func TestShardWidthOneMatchesClassic(t *testing.T) {
	counters := func(shards int) string {
		k, c, _ := newShardedCache(5, 32, shards, NVRAMPartial(8))
		var out string
		run(t, k, func(tk sched.Task) {
			fill(tk, c, 1, 16)
			for i := 0; i < 8; i++ {
				b, hit := c.GetBlock(tk, key(2, core.BlockNo(i)))
				if !hit {
					c.Filled(tk, b, core.BlockSize)
				}
				c.Release(tk, b)
			}
			c.FlushAll(tk)
			cs := c.CacheStats()
			out = fmt.Sprintf("l%d h%d e%d f%d nv%d hw%d",
				cs.Lookups.Value(), cs.Hits.Value(), cs.Evictions.Value(),
				cs.FlushedBlocks.Value(), cs.NVRAMWaits.Value(), cs.DirtyHW.Value())
		})
		return out
	}
	if a, b := counters(0), counters(1); a != b {
		t.Fatalf("Shards:0 %q vs Shards:1 %q", a, b)
	}
}

// The NVRAM dirty bound clamps the shard count, so the global bound
// stays exact: 4 NVRAM blocks never hold more than 4 dirty blocks
// no matter how many stripes were asked for.
func TestShardedNVRAMBound(t *testing.T) {
	k, c, _ := newShardedCache(6, 64, 8, NVRAMPartial(4))
	if c.Shards() != 4 {
		t.Fatalf("shards = %d, want clamp to the 4-block NVRAM", c.Shards())
	}
	run(t, k, func(tk sched.Task) {
		fill(tk, c, 1, 12)
		if hw := c.CacheStats().DirtyHW.Value(); hw > 4 {
			t.Fatalf("dirty high water %d exceeds the 4-block NVRAM", hw)
		}
		if c.DirtyCount() > 4 {
			t.Fatalf("dirty count %d exceeds the 4-block NVRAM", c.DirtyCount())
		}
		c.FlushAll(tk)
	})
}

func TestTryStartFillBasics(t *testing.T) {
	k, c, _ := newShardedCache(7, 16, 2, UPS())
	run(t, k, func(tk sched.Task) {
		// Free frames available: a fill is granted and completes into
		// a resident block.
		b, ok := c.TryStartFill(tk, key(1, 0))
		if !ok {
			t.Fatal("TryStartFill refused with free frames")
		}
		c.Filled(tk, b, core.BlockSize)
		if !c.Peek(tk, key(1, 0)) {
			t.Fatal("filled block not resident")
		}
		got, hit := c.GetBlock(tk, key(1, 0))
		if !hit {
			t.Fatal("demand read missed a finished fill")
		}
		c.Release(tk, got)
		// Present block: refused.
		if _, ok := c.TryStartFill(tk, key(1, 0)); ok {
			t.Fatal("TryStartFill granted for a resident block")
		}
		if c.CacheStats().ReadaheadFills.Value() != 1 {
			t.Fatalf("readahead fills = %d", c.CacheStats().ReadaheadFills.Value())
		}
	})
}

// The NVRAM residency regression: readahead fills must never flush
// or evict dirty blocks. With every frame dirty or pinned,
// TryStartFill refuses instead of entering the pressure path.
func TestTryStartFillNeverTouchesDirty(t *testing.T) {
	k, c, st := newShardedCache(8, 8, 1, UPS())
	run(t, k, func(tk sched.Task) {
		fill(tk, c, 1, 8) // every frame dirty
		if c.DirtyCount() != 8 {
			t.Fatalf("dirty = %d", c.DirtyCount())
		}
		if _, ok := c.TryStartFill(tk, key(2, 0)); ok {
			t.Fatal("TryStartFill granted with only dirty frames")
		}
		// Residency accounting pinned: nothing flushed, nothing
		// evicted, every dirty block still resident.
		if got := c.CacheStats().FlushedBlocks.Value(); got != 0 {
			t.Fatalf("readahead pressure flushed %d blocks", got)
		}
		if got := c.CacheStats().Evictions.Value(); got != 0 {
			t.Fatalf("readahead evicted %d blocks", got)
		}
		if len(st.flushed) != 0 {
			t.Fatalf("store saw %d flushes", len(st.flushed))
		}
		if c.DirtyCount() != 8 {
			t.Fatalf("dirty count moved to %d", c.DirtyCount())
		}
		for i := 0; i < 8; i++ {
			if !c.Peek(tk, key(1, core.BlockNo(i))) {
				t.Fatalf("dirty block %d lost residency", i)
			}
		}
		c.FlushAll(tk)
	})
}

// A failed fill returns the frame and leaves no index entry.
func TestFinishFillError(t *testing.T) {
	k, c, _ := newShardedCache(9, 8, 2, UPS())
	run(t, k, func(tk sched.Task) {
		b, ok := c.TryStartFill(tk, key(1, 3))
		if !ok {
			t.Fatal("TryStartFill refused")
		}
		c.FillFailed(tk, b)
		if c.Peek(tk, key(1, 3)) {
			t.Fatal("failed fill left a resident block")
		}
		// The frame is reusable.
		nb, hit := c.GetBlock(tk, key(1, 3))
		if hit {
			t.Fatal("hit after failed fill")
		}
		c.Filled(tk, nb, core.BlockSize)
		c.Release(tk, nb)
	})
}

// With every frame under an in-flight readahead fill there is nothing
// to flush, but the frames come back — a demand miss must park until
// a fill ends and returns one instead of declaring the shard wedged.
func TestDemandMissWaitsForReadaheadFills(t *testing.T) {
	k, c, _ := newShardedCache(10, 8, 1, UPS())
	run(t, k, func(tk sched.Task) {
		var fills []*Block
		for i := 0; i < 8; i++ {
			b, ok := c.TryStartFill(tk, key(1, core.BlockNo(i)))
			if !ok {
				t.Fatalf("TryStartFill %d refused", i)
			}
			fills = append(fills, b)
		}
		if _, ok := c.TryStartFill(tk, key(1, 8)); ok {
			t.Fatal("ninth fill granted from an 8-frame cache")
		}
		done := false
		k.Go("demand", func(dt sched.Task) {
			b, hit := c.GetBlock(dt, key(2, 0))
			if hit {
				t.Error("demand miss reported a hit")
			}
			c.Filled(dt, b, core.BlockSize)
			c.Release(dt, b)
			done = true
		})
		tk.Sleep(time.Millisecond)
		if done {
			t.Fatal("demand GetBlock did not park behind the fills")
		}
		c.Filled(tk, fills[0], core.BlockSize)
		tk.Sleep(time.Millisecond)
		if !done {
			t.Fatal("demand GetBlock still parked after the fill ended")
		}
		if !c.Peek(tk, key(2, 0)) {
			t.Fatal("demand block not resident")
		}
		for _, b := range fills[1:] {
			c.Filled(tk, b, core.BlockSize)
		}
	})
}
