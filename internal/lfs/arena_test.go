package lfs

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/layout"
	"repro/internal/sched"
)

// countDrv counts the read requests, and the blocks they cover, that
// reach a device.
type countDrv struct {
	device.Driver
	reads, blocks int
}

func (d *countDrv) Do(t sched.Task, r *device.Request) error {
	if r.Op == device.OpRead {
		d.reads++
		d.blocks += r.Blocks
	}
	return d.Driver.Do(t, r)
}

// stamp is block b's content in generation gen: every block of every
// generation differs.
func stamp(b int, gen byte) []byte {
	buf := make([]byte, core.BlockSize)
	for i := range buf {
		buf[i] = gen ^ byte(b*7+i)
	}
	return buf
}

// writeStamped writes blocks blks of ino, generation gen, as one job.
func writeStamped(tk sched.Task, l *LFS, ino *layout.Inode, gen byte, blks ...int) error {
	ws := make([]layout.BlockWrite, len(blks))
	for i, b := range blks {
		ws[i] = layout.BlockWrite{Blk: core.BlockNo(b), Data: stamp(b, gen), Size: core.BlockSize}
		if end := int64(b+1) * core.BlockSize; end > ino.Size {
			ino.Size = end
		}
	}
	return l.WriteBlocks(tk, ino, ws)
}

// expectStamped reads ino's blocks and compares them with want[b],
// the generation block b was last written in.
func expectStamped(t *testing.T, tk sched.Task, l *LFS, id core.FileID, want []byte, when string) {
	t.Helper()
	ino, err := l.GetInode(tk, id)
	if err != nil {
		t.Fatalf("%s: GetInode(%d): %v", when, id, err)
	}
	got := make([]byte, core.BlockSize)
	for b, gen := range want {
		if err := readOne(tk, l, ino, core.BlockNo(b), got); err != nil {
			t.Fatalf("%s: read f%d/b%d: %v", when, id, b, err)
		}
		if !bytes.Equal(got, stamp(b, gen)) {
			t.Fatalf("%s: f%d/b%d is not generation %d", when, id, b, gen)
		}
	}
}

// locked runs fn under l.mu, as the log's own callers do.
func locked(tk sched.Task, l *LFS, fn func() error) error {
	l.mu.Lock(tk)
	err := fn()
	l.mu.Unlock(tk)
	return err
}

// victimLive are the slots of a makeVictim segment that stay live:
// both ends and the middle, between dead gaps of 1, 3, 8 (bridged
// into one read) and 9 slots (split into a second read).
var victimLive = []int{0, 1, 3, 7, 8, 17, 27}

const victimBlocks = 28

// makeVictim lays file ino's blocks 0..27 (generation gen) at the
// start of a fresh segment in one flush job, commits them with a
// barrier — the indirect and inode blocks take the segment's far end —
// and retires the segment; then it overwrites every block outside
// victimLive (generation gen+1) in the next segment. The returned
// segment holds victimLive's data slots live and nothing else.
func makeVictim(tk sched.Task, l *LFS, ino *layout.Inode, gen byte) (int, error) {
	if err := locked(tk, l, func() error { return l.writeCurSegment(tk, true) }); err != nil {
		return -1, err
	}
	all := make([]int, victimBlocks)
	for b := range all {
		all[b] = b
	}
	if err := writeStamped(tk, l, ino, gen, all...); err != nil {
		return -1, err
	}
	if err := l.WriteBarrier(tk); err != nil {
		return -1, err
	}
	victim := l.cur.seg
	if got := ino.BlockAddr(victimBlocks - 1); got != l.segStart(victim)+victimBlocks {
		return -1, fmt.Errorf("block %d at %d, not slot %d of segment %d", victimBlocks-1, got, victimBlocks-1, victim)
	}
	if err := locked(tk, l, func() error { return l.writeCurSegment(tk, true) }); err != nil {
		return -1, err
	}
	var dead []int
	for b := 0; b < victimBlocks; b++ {
		if !containsInt(victimLive, b) {
			dead = append(dead, b)
		}
	}
	if err := writeStamped(tk, l, ino, gen+1, dead...); err != nil {
		return -1, err
	}
	return victim, l.WriteBarrier(tk)
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// victimGens is what a makeVictim file holds: gen on victimLive's
// blocks, gen+1 elsewhere.
func victimGens(gen byte) []byte {
	want := make([]byte, victimBlocks)
	for b := range want {
		want[b] = gen + 1
		if containsInt(victimLive, b) {
			want[b] = gen
		}
	}
	return want
}

// cleanRig is a mounted LFS of 32-block segments over a RAM device
// whose reads are counted.
func cleanRig(seed int64) (*sched.VKernel, *countDrv, *LFS) {
	k := sched.NewVirtual(seed)
	drv := &countDrv{Driver: device.NewMemDriver(k, "mem0", 8192, nil)}
	l := New(k, "vol0", layout.NewPartition(drv, 0, 0, 8192, false), Config{SegBlocks: 32, MaxInodes: 1 << 10})
	return k, drv, l
}

// TestCleanerReadsOnlyLiveRuns cleans two victims — a two-ended
// segment, and one roll-forward trimmed at a torn tail — whose live
// data sits at both ends and in the middle between dead gaps. Each is
// described by its summary block, which the cleaner reads, then one
// request per live run, bridging gaps of up to bridgeGap slots; every
// byte reads back after a remount and after a crash and recovery.
func TestCleanerReadsOnlyLiveRuns(t *testing.T) {
	for _, crash := range []bool{false, true} {
		after := "remount"
		if crash {
			after = "crash"
		}
		t.Run("two-ended/"+after, func(t *testing.T) {
			k, drv, l := cleanRig(51)
			run(t, k, func(tk sched.Task) {
				l.Format(tk)
				l.Mount(tk)
				ino, _ := l.AllocInode(tk, core.TypeRegular)
				victim, err := makeVictim(tk, l, ino, 0x10)
				if err != nil {
					t.Fatalf("makeVictim: %v", err)
				}
				// Live runs: slots 0..17 (gaps of 1, 3 and 8 bridged),
				// then slot 27 past a gap of 9.
				l = cleanAndReopen(t, tk, drv, l, victim, 1+2, 1+18+1, crash)
				expectStamped(t, tk, l, ino.ID, victimGens(0x10), "after cleaning and "+after)
			})
		})
		t.Run("trimmed/"+after, func(t *testing.T) {
			k, drv, l := cleanRig(52)
			run(t, k, func(tk sched.Task) {
				l.Format(tk)
				l.Mount(tk)
				ino, _ := l.AllocInode(tk, core.TypeRegular)
				writeStamped(tk, l, ino, 1, 0)
				l.Sync(tk)
				// Blocks 1..31 fill one segment (slots 0..30) and close
				// it without a barrier: no inode record rides along.
				blks := make([]int, 40)
				for i := range blks {
					blks[i] = 1 + i
				}
				if err := writeStamped(tk, l, ino, 2, blks...); err != nil {
					t.Fatalf("write: %v", err)
				}
				victim := l.segOf(ino.BlockAddr(1))
				if l.segOf(ino.BlockAddr(31)) != victim || l.sut[victim].state != segInUse {
					t.Fatalf("blocks 1..31 not in one retired segment")
				}
				// Tear slot 20 (block 21): roll-forward keeps slots 0..19.
				deviceWrite(tk, t, drv, ino.BlockAddr(21), blockOf(0xDD))
				l = New(k, "vol0", layout.NewPartition(drv, 0, 0, 8192, false), Config{})
				st, err := l.Recover(tk)
				if err != nil || !st.TornTail {
					t.Fatalf("Recover: %+v, %v", st, err)
				}
				ino, err = l.GetInode(tk, ino.ID)
				if err != nil {
					t.Fatalf("GetInode: %v", err)
				}
				// Slots 0,1,3,4,8,9,18,19 stay live: eight blocks, more
				// than the arena's free list holds, and still one read.
				want := make([]byte, 21)
				for b := range want {
					want[b] = 2
				}
				want[0] = 1
				var dead []int
				for slot := 0; slot < 20; slot++ {
					if !containsInt([]int{0, 1, 3, 4, 8, 9, 18, 19}, slot) {
						dead = append(dead, slot+1)
						want[slot+1] = 3
					}
				}
				if err := writeStamped(tk, l, ino, 3, dead...); err != nil {
					t.Fatalf("overwrite: %v", err)
				}
				if err := l.WriteBarrier(tk); err != nil {
					t.Fatalf("barrier: %v", err)
				}
				l = cleanAndReopen(t, tk, drv, l, victim, 1+1, 1+20, crash)
				expectStamped(t, tk, l, ino.ID, want, "after cleaning and "+after)
			})
		})
	}
}

// deviceWrite writes one raw block at lba, below the layout.
func deviceWrite(tk sched.Task, t *testing.T, drv device.Driver, lba int64, buf []byte) {
	t.Helper()
	if err := drv.Do(tk, &device.Request{Op: device.OpWrite, Addr: core.DiskAddr{LBA: lba}, Blocks: 1, Data: buf}); err != nil {
		t.Fatalf("raw write at %d: %v", lba, err)
	}
}

// cleanAndReopen cleans victim, checking the device reads it costs,
// and makes the result durable — closing the segment and
// checkpointing, or with only a write barrier when crash is set. It
// then brings up a fresh instance over the device (Mount, or Recover
// after the crash), checks it and returns it.
func cleanAndReopen(t *testing.T, tk sched.Task, drv *countDrv, l *LFS, victim, wantReads, wantBlocks int, crash bool) *LFS {
	t.Helper()
	reads, blocks := drv.reads, drv.blocks
	copied := l.liveCopied.Value()
	if err := locked(tk, l, func() error { return l.cleanSegment(tk, victim) }); err != nil {
		t.Fatalf("cleanSegment: %v", err)
	}
	if got := drv.reads - reads; got != wantReads {
		t.Errorf("cleaning took %d device reads, want %d", got, wantReads)
	}
	if got := drv.blocks - blocks; got != wantBlocks {
		t.Errorf("cleaning read %d blocks, want %d", got, wantBlocks)
	}
	if l.liveCopied.Value() == copied {
		t.Fatal("the victim had no live data to copy")
	}
	if l.sut[victim].state != segFree {
		t.Fatalf("victim %d not freed", victim)
	}
	var err error
	if crash {
		err = l.WriteBarrier(tk)
	} else {
		err = locked(tk, l, func() error {
			if err := l.writeCurSegment(tk, true); err != nil {
				return err
			}
			return l.checkpointLocked(tk)
		})
	}
	if err != nil {
		t.Fatalf("commit: %v", err)
	}
	mustClean(t, tk, l, "after cleaning")
	l = New(l.k, "vol0", layout.NewPartition(drv, 0, 0, 8192, false), Config{})
	if crash {
		_, err = l.Recover(tk)
	} else {
		err = l.Mount(tk)
	}
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	mustClean(t, tk, l, "after reopening")
	return l
}

// TestBarrierCycleAllocatesNothing is the flush path's steady state: a
// one-block flush job and its barrier — data slot, indirect block,
// inode block, summary, and a segment retired and reopened every few
// dozen cycles — allocate nothing once warm.
func TestBarrierCycleAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("-race: sync.Pool drops the partition's pooled requests")
	}
	k := sched.NewVirtual(53)
	run(t, k, func(tk sched.Task) {
		drv := device.NewMemDriver(k, "mem0", 8192, nil)
		l := New(k, "vol0", layout.NewPartition(drv, 0, 0, 8192, false), Config{SegBlocks: 128, MaxInodes: 64})
		l.Format(tk)
		l.Mount(tk)
		ino, _ := l.AllocInode(tk, core.TypeRegular)
		const fileBlocks = 20 // past the direct map: one indirect block
		var ws [fileBlocks][]layout.BlockWrite
		for i := range ws {
			ws[i] = one(i, byte(i))
		}
		ino.Size = fileBlocks * core.BlockSize
		var err error
		i := 0
		cycle := func() {
			if err == nil {
				err = l.WriteBlocks(tk, ino, ws[i%fileBlocks])
			}
			if err == nil {
				err = l.WriteBarrier(tk)
			}
			i++
		}
		for range 2 * fileBlocks {
			cycle()
		}
		n := testing.AllocsPerRun(300, cycle)
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if n != 0 {
			t.Errorf("WriteBlocks + WriteBarrier allocate %v per cycle, want 0", n)
		}
		if got := l.segsWritten.Value(); got < 5 {
			t.Fatalf("only %d segments retired: the gate missed the reopen", got)
		}
		mustClean(t, tk, l, "after the cycles")
	})
}

// TestSyncCycleAllocatesNothing: a one-block write and a Sync — the
// segment written out, the dirty inode-map chunk appended and a
// checkpoint region encoded into the log's kept buffer — allocate
// nothing once warm.
func TestSyncCycleAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("-race: sync.Pool drops the partition's pooled requests")
	}
	k := sched.NewVirtual(55)
	run(t, k, func(tk sched.Task) {
		drv := device.NewMemDriver(k, "mem0", 8192, nil)
		l := New(k, "vol0", layout.NewPartition(drv, 0, 0, 8192, false), Config{SegBlocks: 128, MaxInodes: 64})
		l.Format(tk)
		l.Mount(tk)
		ino, _ := l.AllocInode(tk, core.TypeRegular)
		const fileBlocks = 4
		var ws [fileBlocks][]layout.BlockWrite
		for i := range ws {
			ws[i] = one(i, byte(i))
		}
		ino.Size = fileBlocks * core.BlockSize
		var err error
		i := 0
		cycle := func() {
			if err == nil {
				err = l.WriteBlocks(tk, ino, ws[i%fileBlocks])
			}
			if err == nil {
				err = l.Sync(tk)
			}
			i++
		}
		for range 2 * fileBlocks {
			cycle()
		}
		n := testing.AllocsPerRun(200, cycle)
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if n != 0 {
			t.Errorf("WriteBlocks + Sync allocate %v per cycle, want 0", n)
		}
		mustClean(t, tk, l, "after the cycles")
	})
}

// TestCleanSegmentAllocatesNothing: cleaning a victim whose live data
// fits one arena run allocates nothing once the free list is warm.
func TestCleanSegmentAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("-race: sync.Pool drops the partition's pooled requests")
	}
	k, _, l := cleanRig(54)
	run(t, k, func(tk sched.Task) {
		l.Format(tk)
		l.Mount(tk)
		const nvictims = 24
		var victims []int
		for v := 0; v < nvictims; v++ {
			ino, err := l.AllocInode(tk, core.TypeRegular)
			if err != nil {
				t.Fatal(err)
			}
			victim, err := makeVictim(tk, l, ino, byte(v))
			if err != nil {
				t.Fatalf("victim %d: %v", v, err)
			}
			victims = append(victims, victim)
		}
		var err error
		i := 0
		n := testing.AllocsPerRun(nvictims-1, func() {
			err = locked(tk, l, func() error {
				if err := l.cleanSegment(tk, victims[i]); err != nil {
					return err
				}
				return l.writeThrough(tk)
			})
			i++
		})
		if err != nil {
			t.Fatalf("clean %d: %v", i, err)
		}
		if n != 0 {
			t.Errorf("cleaning a victim allocates %v, want 0", n)
		}
		if got := l.liveCopied.Value(); got != int64(nvictims*len(victimLive)) {
			t.Fatalf("copied %d live blocks, want %d", got, nvictims*len(victimLive))
		}
	})
}

// BenchmarkCleanSegment measures cleaning one makeVictim segment —
// summary read, two live runs read and written through — on a RAM
// device (run with -benchmem).
func BenchmarkCleanSegment(b *testing.B) {
	k, _, l := cleanRig(55)
	k.Go("bench", func(tk sched.Task) {
		defer k.Stop()
		l.Format(tk)
		l.Mount(tk)
		ino, err := l.AllocInode(tk, core.TypeRegular)
		if err != nil {
			b.Error(err)
			return
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			victim, err := makeVictim(tk, l, ino, byte(2*i))
			b.StartTimer()
			if err == nil {
				err = locked(tk, l, func() error {
					if err := l.cleanSegment(tk, victim); err != nil {
						return err
					}
					return l.writeThrough(tk)
				})
			}
			if err != nil {
				b.Error(err)
				return
			}
		}
	})
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// TestArenaRecyclingHammer races readers against a writer whose flush
// jobs and barriers fail at random on the real kernel. A failed write
// leaves its slots staged in arena blocks that ReadRunVec and
// readLogBlock serve from the pending map, and the next successful
// write-through hands those blocks back to the arena for the next
// job's metadata. Under -race a block recycled while a reader still
// copied from it is a data race; without it, a reader that got a
// recycled block sees the wrong bytes. The writer scribbles over each
// job's buffer once WriteBlocks returns, as a cache frame leaving its
// Flushing window would be rewritten.
func TestArenaRecyclingHammer(t *testing.T) {
	const (
		fileBlocks = 24
		jobs       = 400
		readers    = 3
	)
	k := sched.NewReal(56)
	mem := device.NewMemDriver(k, "mem0", 4096, nil)
	l := New(k, "vol0", layout.NewPartition(mem, 0, 0, 4096, false), Config{SegBlocks: 32, MaxInodes: 64})
	var ino *layout.Inode
	// A block's bytes: its number in the first 8, then its generation.
	block := func(b int, gen byte) []byte {
		buf := bytes.Repeat([]byte{gen}, core.BlockSize)
		copy(buf, fmt.Sprintf("%08d", b))
		return buf
	}
	sound := func(b int, buf []byte) bool {
		return string(buf[:8]) == fmt.Sprintf("%08d", b) && bytes.Count(buf[8:], buf[8:9]) == len(buf)-8
	}
	ready := make(chan struct{})
	k.Go("setup", func(tk sched.Task) {
		defer close(ready)
		if err := l.Format(tk); err == nil {
			err = l.Mount(tk)
		}
		ino, _ = l.AllocInode(tk, core.TypeRegular)
		ws := make([]layout.BlockWrite, fileBlocks)
		for b := range ws {
			ws[b] = layout.BlockWrite{Blk: core.BlockNo(b), Data: block(b, 1), Size: core.BlockSize}
		}
		ino.Size = fileBlocks * core.BlockSize
		if err := l.WriteBlocks(tk, ino, ws); err != nil {
			t.Errorf("prefill: %v", err)
		}
		if err := l.Sync(tk); err != nil {
			t.Errorf("prefill sync: %v", err)
		}
	})
	<-ready
	if t.Failed() {
		return
	}

	var done atomic.Bool
	var wg sync.WaitGroup
	var served atomic.Int64
	for r := 0; r < readers; r++ {
		wg.Add(1)
		k.Go(fmt.Sprintf("reader%d", r), func(tk sched.Task) {
			defer wg.Done()
			buf := make([]byte, core.BlockSize)
			meta := make([]byte, core.BlockSize)
			for i := r; !done.Load(); i++ {
				b := i % fileBlocks
				if err := readOne(tk, l, ino, core.BlockNo(b), buf); err != nil || !sound(b, buf) {
					t.Errorf("reader %d: block %d read torn or foreign bytes (%v)", r, b, err)
					return
				}
				// The inode's home, from the pending map while a failed
				// barrier leaves it staged.
				l.mu.Lock(tk)
				var err error
				if ent := l.imap[ino.ID]; ent.addr >= 0 {
					_, staged := l.pending[ent.addr]
					if err = l.readLogBlock(tk, ent.addr, meta); err == nil && staged {
						served.Add(1)
					}
					if err == nil {
						var di *layout.DiskInode
						if di, err = layout.DecodeInode(meta[int(ent.slot)*layout.InodeSize:]); err == nil && di.Ino.ID != ino.ID {
							err = fmt.Errorf("record of inode %d", di.Ino.ID)
						}
					}
				}
				l.mu.Unlock(tk)
				if err != nil {
					t.Errorf("reader %d: inode record: %v", r, err)
					return
				}
			}
		})
	}

	plan := device.NewFaultPlan(device.FaultConfig{Seed: 56, WriteErrRate: 0.3})
	finished := make(chan struct{})
	k.Go("writer", func(tk sched.Task) {
		defer close(finished)
		mem.SetInjector(plan)
		buf := make([]byte, core.BlockSize)
		ws := []layout.BlockWrite{{Data: buf, Size: core.BlockSize}}
		for j := 0; j < jobs; j++ {
			b := (j * 5) % fileBlocks
			copy(buf, block(b, byte(2+j%200)))
			ws[0].Blk = core.BlockNo(b)
			l.WriteBlocks(tk, ino, ws)
			clear(buf) // the frame is rewritten the moment the job returns
			l.WriteBarrier(tk)
		}
		mem.SetInjector(nil)
		done.Store(true)
		if err := l.Sync(tk); err != nil {
			t.Errorf("final sync: %v", err)
		}
	})
	select {
	case <-finished:
	case <-time.After(time.Minute):
		t.Fatal("hammer timed out")
	}
	wg.Wait()
	check := make(chan struct{})
	k.Go("check", func(tk sched.Task) {
		defer close(check)
		mustClean(t, tk, l, "after the hammer")
		buf := make([]byte, core.BlockSize)
		for b := 0; b < fileBlocks; b++ {
			if err := readOne(tk, l, ino, core.BlockNo(b), buf); err != nil || !sound(b, buf) {
				t.Errorf("block %d after the hammer: %v", b, err)
			}
		}
	})
	<-check
	if served.Load() == 0 {
		t.Log("no inode record was served from the pending map this run")
	}
}
