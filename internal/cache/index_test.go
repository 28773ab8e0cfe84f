package cache

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
)

// checkIndex verifies the per-file index of every shard: each indexed
// frame is on its file's chain exactly once, a chain holds nothing
// else, and a free frame is on no chain.
func checkIndex(c *Cache) error {
	for i, sh := range c.shards {
		seen := map[*Block]bool{}
		for fk, head := range sh.files {
			if head == nil || head.fprev != nil {
				return fmt.Errorf("shard %d file %v: chain head %p is not a head", i, fk, head)
			}
			for b := head; b != nil; b = b.fnext {
				switch {
				case seen[b]:
					return fmt.Errorf("shard %d: %v chained twice", i, b.Key)
				case fileOf(b.Key) != fk:
					return fmt.Errorf("shard %d: %v on file %v's chain", i, b.Key, fk)
				case sh.index[b.Key] != b:
					return fmt.Errorf("shard %d: chained %v (%v) is not the indexed frame", i, b.Key, b.state)
				case b.fnext != nil && b.fnext.fprev != b:
					return fmt.Errorf("shard %d: %v's successor does not link back", i, b.Key)
				}
				seen[b] = true
			}
		}
		for key, b := range sh.index {
			if b.Key != key || !seen[b] {
				return fmt.Errorf("shard %d: indexed %v (frame %v, %v) is on no chain", i, key, b.Key, b.state)
			}
		}
		for b := sh.free.head; b != nil; b = b.next {
			if b.fprev != nil || b.fnext != nil || sh.files[fileOf(b.Key)] == b {
				return fmt.Errorf("shard %d: free frame %v is still chained", i, b.Key)
			}
		}
	}
	return nil
}

// TestIndexInvariant drives a seeded random op stream through 1-, 2-
// and 4-shard caches under every flush policy and checks the per-file
// index after every op. A readahead task leaves frames filling and a
// holder task keeps frames pinned, so discards wait on every kind of
// busy frame; a cache of 32 frames over 6 files of 16 blocks keeps
// allocation evicting.
func TestIndexInvariant(t *testing.T) {
	policies := []FlushConfig{UPS(), WriteDelay(), NVRAMWhole(8), NVRAMPartial(8)}
	for _, shards := range []int{1, 2, 4} {
		for _, fc := range policies {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%dshards/%s/seed%d", shards, fc.Name, seed), func(t *testing.T) {
					indexStream(t, shards, fc, seed, 1500)
				})
			}
		}
	}
}

func indexStream(t *testing.T, shards int, fc FlushConfig, seed int64, ops int) {
	const files, blocks = 6, 16
	k, c, _ := newShardedCache(seed, 32, shards, fc)
	rng := rand.New(rand.NewSource(seed))
	pick := func() core.BlockKey {
		return key(core.FileID(1+rng.Intn(files)), core.BlockNo(rng.Intn(blocks)))
	}
	done, op := false, 0
	k.Go("watchdog", func(tk sched.Task) {
		// An op stream takes seconds of virtual time; a stuck op would
		// spin on its cond for ever while the helpers keep time going.
		tk.Sleep(time.Hour)
		if !done {
			t.Errorf("op %d never finished", op)
			k.Stop()
		}
	})
	k.Go("readahead", func(tk sched.Task) {
		for !done {
			if b, ok := c.TryStartFill(tk, pick()); ok {
				tk.Sleep(time.Duration(1+rng.Intn(3)) * time.Millisecond)
				if rng.Intn(5) == 0 {
					c.FillFailed(tk, b)
				} else {
					c.Filled(tk, b, core.BlockSize)
				}
			}
			tk.Sleep(2 * time.Millisecond)
		}
	})
	k.Go("holder", func(tk sched.Task) {
		for !done {
			if b, hit := c.GetBlockHolding(tk, pick()); b != nil {
				if !hit {
					c.Filled(tk, b, core.BlockSize)
				}
				tk.Sleep(time.Duration(1+rng.Intn(4)) * time.Millisecond)
				c.Release(tk, b)
			}
			tk.Sleep(3 * time.Millisecond)
		}
	})
	run(t, k, func(tk sched.Task) {
		for ; op < ops; op++ {
			kind := rng.Intn(10)
			switch key := pick(); {
			case kind < 5: // read or write one block
				b, hit := c.GetBlock(tk, key)
				if !hit {
					if rng.Intn(8) == 0 {
						c.FillFailed(tk, b)
						break
					}
					c.Filled(tk, b, core.BlockSize)
				}
				if rng.Intn(2) == 0 {
					c.MarkDirty(tk, b)
				}
				c.Release(tk, b)
			case kind < 7: // let flushes and fills land
				tk.Sleep(time.Duration(rng.Intn(8)) * time.Millisecond)
			case kind < 8:
				c.FlushFile(tk, key.Vol, key.File)
			default:
				c.DiscardFile(tk, key.Vol, key.File, core.BlockNo(rng.Intn(blocks)))
			}
			if err := checkIndex(c); err != nil {
				t.Errorf("op %d (kind %d): %v", op, kind, err)
				done = true
				return
			}
		}
		done = true
		tk.Sleep(10 * time.Millisecond) // the helpers finish their last op
		if err := checkIndex(c); err != nil {
			t.Errorf("at rest: %v", err)
		}
	})
}

// residentBlocks is how many blocks the benchmarked file keeps cached.
const residentBlocks = 8

// inTask runs body as a task of k to completion, leaving k usable.
func inTask(tb testing.TB, k *sched.VKernel, body func(tk sched.Task)) {
	tb.Helper()
	k.Go("bench", body)
	if err := k.Run(); err != nil {
		tb.Fatalf("Run: %v", err)
	}
}

// readBlock brings key into c clean and unpinned.
func readBlock(tk sched.Task, c *Cache, k core.BlockKey) {
	b, hit := c.GetBlock(tk, k)
	if !hit {
		c.Filled(tk, b, core.BlockSize)
	}
	c.Release(tk, b)
}

// fullCache returns a simulated cache of frames frames, each holding a
// clean block of some residentBlocks-block file; file 1 is one of them.
func fullCache(tb testing.TB, frames int) (*sched.VKernel, *Cache) {
	k := sched.NewVirtual(1)
	c := New(k, Config{Blocks: frames, Flush: UPS(), Simulated: true}, &fakeStore{k: k})
	inTask(tb, k, func(tk sched.Task) {
		for i := 0; i < frames; i++ {
			readBlock(tk, c, key(core.FileID(1+i/residentBlocks), core.BlockNo(i%residentBlocks)))
		}
	})
	return k, c
}

// discardAndRefill truncates file 1 to nothing and reads its blocks
// back: the cache is full again afterwards.
func discardAndRefill(tk sched.Task, c *Cache) {
	c.DiscardFile(tk, 1, 1, 0)
	for i := 0; i < residentBlocks; i++ {
		readBlock(tk, c, key(1, core.BlockNo(i)))
	}
}

// getBlockHit looks up a resident block and releases it.
func getBlockHit(tk sched.Task, c *Cache) {
	b, _ := c.GetBlock(tk, key(1, 0))
	c.Release(tk, b)
}

var benchFrames = []struct {
	name   string
	frames int
}{{"1k", 1 << 10}, {"16k", 1 << 14}}

// BenchmarkDiscardFile truncates a file of residentBlocks cached
// blocks in a full cache and reads them back. The discard visits only
// the file's own frames, so the cost does not grow with the cache.
func BenchmarkDiscardFile(b *testing.B) {
	for _, bf := range benchFrames {
		b.Run(bf.name, func(b *testing.B) {
			k, c := fullCache(b, bf.frames)
			b.ReportAllocs()
			inTask(b, k, func(tk sched.Task) {
				b.ResetTimer() // the task's own start is set-up
				for i := 0; i < b.N; i++ {
					discardAndRefill(tk, c)
				}
			})
		})
	}
}

// BenchmarkGetBlockHit is the hit path: one index lookup, a pin and
// its release.
func BenchmarkGetBlockHit(b *testing.B) {
	k, c := fullCache(b, 1<<10)
	b.ReportAllocs()
	inTask(b, k, func(tk sched.Task) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			getBlockHit(tk, c)
		}
	})
}

// The benchmarked paths allocate nothing: the discard sorts in place
// into per-shard scratch and the index reuses its map slots.
func TestBenchmarkedPathsAllocateNothing(t *testing.T) {
	for _, bf := range benchFrames {
		k, c := fullCache(t, bf.frames)
		inTask(t, k, func(tk sched.Task) {
			if n := testing.AllocsPerRun(200, func() { discardAndRefill(tk, c) }); n != 0 {
				t.Errorf("DiscardFile/%s: %v allocs/op, want 0", bf.name, n)
			}
			if n := testing.AllocsPerRun(200, func() { getBlockHit(tk, c) }); n != 0 {
				t.Errorf("GetBlockHit/%s: %v allocs/op, want 0", bf.name, n)
			}
		})
		if err := checkIndex(c); err != nil {
			t.Fatal(err)
		}
	}
}

// countStore counts flush jobs and keeps nothing.
type countStore struct{ jobs int }

func (s *countStore) FlushBlocks(t sched.Task, blocks []*Block) error {
	s.jobs++
	return nil
}

// TestFlushJobsAllocateNothing: dirtying resident blocks and flushing
// them through the shard's flusher allocates nothing once warm, for
// one-block and whole-file jobs alike — the job slices and the queue
// keep their backing arrays.
func TestFlushJobsAllocateNothing(t *testing.T) {
	for _, fc := range []FlushConfig{UPS(), NVRAMWhole(8)} {
		t.Run(fc.Name, func(t *testing.T) {
			k := sched.NewVirtual(1)
			st := &countStore{}
			c := New(k, Config{Blocks: 16, Flush: fc, Simulated: true}, st)
			c.Start()
			run(t, k, func(tk sched.Task) {
				cycle := func() {
					fill(tk, c, 1, 4)
					c.FlushFile(tk, 1, 1)
				}
				cycle()
				if n := testing.AllocsPerRun(100, cycle); n != 0 {
					t.Errorf("dirty + flush of 4 blocks: %v allocs, want 0", n)
				}
				// One cycle before the gate, one to warm it, 100 counted.
				if want := 102 * 4; fc.WholeFile {
					if st.jobs != 102 {
						t.Errorf("%d whole-file jobs, want 102", st.jobs)
					}
				} else if st.jobs != want {
					t.Errorf("%d one-block jobs, want %d", st.jobs, want)
				}
			})
		})
	}
}
