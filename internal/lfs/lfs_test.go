package lfs

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/layout"
	"repro/internal/sched"
	"repro/internal/stats"
)

// realRig is an LFS over a RAM-backed "real" device.
type realRig struct {
	k   *sched.VKernel
	drv device.Driver
	l   *LFS
}

func newRealRig(seed int64, blocks int64) *realRig {
	k := sched.NewVirtual(seed)
	drv := device.NewMemDriver(k, "mem0", blocks, nil)
	part := layout.NewPartition(drv, 0, 0, blocks, false)
	l := New(k, "vol0", part, Config{SegBlocks: 16, MaxInodes: 1 << 12})
	return &realRig{k: k, drv: drv, l: l}
}

// remount builds a fresh LFS instance over the same device, as after
// a crash or restart.
func (r *realRig) remount() *LFS {
	part := layout.NewPartition(r.drv, 0, 0, r.drv.CapacityBlocks(), false)
	return New(r.k, "vol0", part, Config{})
}

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

func blockOf(b byte) []byte { return bytes.Repeat([]byte{b}, core.BlockSize) }

func writeFile(tk sched.Task, l *LFS, ino *layout.Inode, blocks ...byte) error {
	var ws []layout.BlockWrite
	for i, b := range blocks {
		ws = append(ws, layout.BlockWrite{Blk: core.BlockNo(i), Data: blockOf(b), Size: core.BlockSize})
	}
	ino.Size = int64(len(blocks)) * core.BlockSize
	return l.WriteBlocks(tk, ino, ws)
}

func TestFormatAndMountReal(t *testing.T) {
	r := newRealRig(1, 4096)
	run(t, r.k, func(tk sched.Task) {
		if err := r.l.Format(tk); err != nil {
			t.Fatalf("Format: %v", err)
		}
		if err := r.l.Mount(tk); err != nil {
			t.Fatalf("Mount: %v", err)
		}
		if r.l.FreeBlocks() == 0 {
			t.Fatal("no free space after format")
		}
	})
}

func TestWriteReadBack(t *testing.T) {
	r := newRealRig(2, 4096)
	run(t, r.k, func(tk sched.Task) {
		r.l.Format(tk)
		r.l.Mount(tk)
		ino, err := r.l.AllocInode(tk, core.TypeRegular)
		if err != nil {
			t.Fatalf("AllocInode: %v", err)
		}
		if err := writeFile(tk, r.l, ino, 0x11, 0x22, 0x33); err != nil {
			t.Fatalf("WriteBlocks: %v", err)
		}
		for i, want := range []byte{0x11, 0x22, 0x33} {
			got := make([]byte, core.BlockSize)
			if err := readOne(tk, r.l, ino, core.BlockNo(i), got); err != nil {
				t.Fatalf("read block %d: %v", i, err)
			}
			if !bytes.Equal(got, blockOf(want)) {
				t.Fatalf("block %d contents wrong (pending-path)", i)
			}
		}
		// Force the segment to disk and read again (device path).
		if err := r.l.Sync(tk); err != nil {
			t.Fatalf("Sync: %v", err)
		}
		for i, want := range []byte{0x11, 0x22, 0x33} {
			got := make([]byte, core.BlockSize)
			readOne(tk, r.l, ino, core.BlockNo(i), got)
			if !bytes.Equal(got, blockOf(want)) {
				t.Fatalf("block %d contents wrong after sync", i)
			}
		}
	})
}

func TestHoleReadsZero(t *testing.T) {
	r := newRealRig(3, 4096)
	run(t, r.k, func(tk sched.Task) {
		r.l.Format(tk)
		r.l.Mount(tk)
		ino, _ := r.l.AllocInode(tk, core.TypeRegular)
		got := blockOf(0xFF)
		if err := readOne(tk, r.l, ino, 5, got); err != nil {
			t.Fatalf("hole read: %v", err)
		}
		if !bytes.Equal(got, blockOf(0)) {
			t.Fatal("hole not zero-filled")
		}
	})
}

func TestRemountRecoversFiles(t *testing.T) {
	r := newRealRig(4, 4096)
	run(t, r.k, func(tk sched.Task) {
		r.l.Format(tk)
		r.l.Mount(tk)
		ino, _ := r.l.AllocInode(tk, core.TypeRegular)
		id := ino.ID
		writeFile(tk, r.l, ino, 0xAA, 0xBB)
		r.l.Sync(tk)
		// "Crash": a fresh instance over the same device must
		// recover everything from the checkpoint.
		r2 := r.remount()
		if err := r2.Mount(tk); err != nil {
			t.Fatalf("remount: %v", err)
		}
		ino2, err := r2.GetInode(tk, id)
		if err != nil {
			t.Fatalf("GetInode after remount: %v", err)
		}
		if ino2.Size != 2*core.BlockSize || ino2.Type != core.TypeRegular {
			t.Fatalf("inode meta lost: size=%d type=%v", ino2.Size, ino2.Type)
		}
		got := make([]byte, core.BlockSize)
		readOne(tk, r2, ino2, 0, got)
		if !bytes.Equal(got, blockOf(0xAA)) {
			t.Fatal("block 0 lost across remount")
		}
		readOne(tk, r2, ino2, 1, got)
		if !bytes.Equal(got, blockOf(0xBB)) {
			t.Fatal("block 1 lost across remount")
		}
	})
}

func TestLargeFileIndirect(t *testing.T) {
	// More blocks than NDirect forces the indirect path.
	r := newRealRig(6, 8192)
	n := layout.NDirect + 20
	run(t, r.k, func(tk sched.Task) {
		r.l.Format(tk)
		r.l.Mount(tk)
		ino, _ := r.l.AllocInode(tk, core.TypeRegular)
		id := ino.ID
		var ws []layout.BlockWrite
		for i := 0; i < n; i++ {
			ws = append(ws, layout.BlockWrite{Blk: core.BlockNo(i), Data: blockOf(byte(i)), Size: core.BlockSize})
		}
		ino.Size = int64(n) * core.BlockSize
		if err := r.l.WriteBlocks(tk, ino, ws); err != nil {
			t.Fatalf("WriteBlocks: %v", err)
		}
		r.l.Sync(tk)
		r2 := r.remount()
		if err := r2.Mount(tk); err != nil {
			t.Fatalf("remount: %v", err)
		}
		ino2, err := r2.GetInode(tk, id)
		if err != nil {
			t.Fatalf("GetInode: %v", err)
		}
		if len(ino2.Blocks) != n {
			t.Fatalf("block map %d entries, want %d", len(ino2.Blocks), n)
		}
		got := make([]byte, core.BlockSize)
		for i := 0; i < n; i += 7 {
			readOne(tk, r2, ino2, core.BlockNo(i), got)
			if got[0] != byte(i) {
				t.Fatalf("block %d contents %#x, want %#x", i, got[0], byte(i))
			}
		}
	})
}

func TestOverwriteKillsOldBlocks(t *testing.T) {
	r := newRealRig(7, 4096)
	run(t, r.k, func(tk sched.Task) {
		r.l.Format(tk)
		r.l.Mount(tk)
		ino, _ := r.l.AllocInode(tk, core.TypeRegular)
		writeFile(tk, r.l, ino, 1)
		addr1 := ino.BlockAddr(0)
		writeFile(tk, r.l, ino, 2)
		addr2 := ino.BlockAddr(0)
		if addr1 == addr2 {
			t.Fatal("LFS overwrote in place")
		}
		seg1 := r.l.segOf(addr1)
		if r.l.sut[seg1].live != int32(r.l.cur.used) && r.l.sut[seg1].live < 0 {
			t.Fatalf("usage accounting wrong: live=%d", r.l.sut[seg1].live)
		}
		got := make([]byte, core.BlockSize)
		readOne(tk, r.l, ino, 0, got)
		if got[0] != 2 {
			t.Fatal("read returned stale version")
		}
	})
}

func TestTruncateFreesBlocks(t *testing.T) {
	r := newRealRig(8, 4096)
	run(t, r.k, func(tk sched.Task) {
		r.l.Format(tk)
		r.l.Mount(tk)
		ino, _ := r.l.AllocInode(tk, core.TypeRegular)
		writeFile(tk, r.l, ino, 1, 2, 3, 4)
		if err := r.l.Truncate(tk, ino, core.BlockSize); err != nil {
			t.Fatalf("Truncate: %v", err)
		}
		if len(ino.Blocks) != 1 || ino.Size != core.BlockSize {
			t.Fatalf("truncate left %d blocks size %d", len(ino.Blocks), ino.Size)
		}
	})
}

func TestFreeInode(t *testing.T) {
	r := newRealRig(9, 4096)
	run(t, r.k, func(tk sched.Task) {
		r.l.Format(tk)
		r.l.Mount(tk)
		ino, _ := r.l.AllocInode(tk, core.TypeRegular)
		id := ino.ID
		writeFile(tk, r.l, ino, 1, 2)
		if err := r.l.FreeInode(tk, id); err != nil {
			t.Fatalf("FreeInode: %v", err)
		}
		if _, err := r.l.GetInode(tk, id); err != core.ErrNotFound {
			t.Fatalf("GetInode after free: %v", err)
		}
	})
}

func TestCleanerReclaimsSpace(t *testing.T) {
	// Small volume (≈31 16-block segments) so the log wraps.
	r := newRealRig(10, 512)
	run(t, r.k, func(tk sched.Task) {
		r.l.Format(tk)
		r.l.Mount(tk)
		for round := 0; round < 100; round++ {
			ino, err := r.l.AllocInode(tk, core.TypeRegular)
			if err != nil {
				t.Fatalf("round %d: AllocInode: %v", round, err)
			}
			if err := writeFile(tk, r.l, ino, byte(round), byte(round+1), byte(round+2), byte(round+3)); err != nil {
				t.Fatalf("round %d: write: %v", round, err)
			}
			if round%2 == 0 {
				if err := r.l.FreeInode(tk, ino.ID); err != nil {
					t.Fatalf("round %d: free: %v", round, err)
				}
			}
		}
		r.l.Sync(tk)
	})
	if r.l.segsCleaned.Value() == 0 {
		t.Fatal("cleaner never ran on a wrapping log")
	}
}

func TestCleanerPreservesLiveData(t *testing.T) {
	r := newRealRig(11, 512)
	var keeper core.FileID
	run(t, r.k, func(tk sched.Task) {
		r.l.Format(tk)
		r.l.Mount(tk)
		ino, _ := r.l.AllocInode(tk, core.TypeRegular)
		keeper = ino.ID
		writeFile(tk, r.l, ino, 0x77, 0x88)
		r.l.Sync(tk)
		// Churn to force cleaning around the keeper.
		for round := 0; round < 100; round++ {
			tmp, err := r.l.AllocInode(tk, core.TypeRegular)
			if err != nil {
				t.Fatalf("churn alloc: %v", err)
			}
			if err := writeFile(tk, r.l, tmp, byte(round), byte(round), byte(round), byte(round)); err != nil {
				t.Fatalf("churn write: %v", err)
			}
			if err := r.l.FreeInode(tk, tmp.ID); err != nil {
				t.Fatalf("churn free: %v", err)
			}
		}
		r.l.Sync(tk)
		ino2, err := r.l.GetInode(tk, keeper)
		if err != nil {
			t.Fatalf("keeper lost: %v", err)
		}
		got := make([]byte, core.BlockSize)
		readOne(tk, r.l, ino2, 0, got)
		if got[0] != 0x77 {
			t.Fatalf("keeper block 0 corrupted: %#x", got[0])
		}
		readOne(tk, r.l, ino2, 1, got)
		if got[0] != 0x88 {
			t.Fatalf("keeper block 1 corrupted: %#x", got[0])
		}
	})
	if r.l.segsCleaned.Value() == 0 {
		t.Fatal("test did not exercise the cleaner")
	}
}

func TestSimulatedVolume(t *testing.T) {
	k := sched.NewVirtual(12)
	// Simulated device stack is not needed; a mem driver with nil
	// data tolerance is — use the sim partition flag with a real
	// driver would fail on nil data, so build a sim driver pair.
	drv := device.NewMemDriver(k, "mem0", 4096, nil)
	_ = drv
	// Simulated partitions pass nil data; the mem backend rejects
	// that, so the sim stack uses the device/disk pair instead.
	// Here we only verify the layout logic with a tolerant driver.
	part := layout.NewPartition(newNullDriver(k, 4096), 0, 0, 4096, true)
	l := New(k, "simvol", part, Config{SegBlocks: 16})
	run(t, k, func(tk sched.Task) {
		l.Format(tk)
		l.Mount(tk)
		ino, err := l.AllocInode(tk, core.TypeRegular)
		if err != nil {
			t.Fatalf("AllocInode: %v", err)
		}
		ws := []layout.BlockWrite{{Blk: 0, Size: core.BlockSize}, {Blk: 1, Size: core.BlockSize}}
		ino.Size = 2 * core.BlockSize
		if err := l.WriteBlocks(tk, ino, ws); err != nil {
			t.Fatalf("sim WriteBlocks: %v", err)
		}
		if err := readOne(tk, l, ino, 0, nil); err != nil {
			t.Fatalf("sim read: %v", err)
		}
		if err := l.Sync(tk); err != nil {
			t.Fatalf("sim Sync: %v", err)
		}
	})
}

func TestPlaceExistingSticky(t *testing.T) {
	k := sched.NewVirtual(13)
	part := layout.NewPartition(newNullDriver(k, 8192), 0, 0, 8192, true)
	l := New(k, "simvol", part, Config{SegBlocks: 16})
	run(t, k, func(tk sched.Task) {
		l.Format(tk)
		l.Mount(tk)
		ino, _ := l.AllocInode(tk, core.TypeRegular)
		if err := l.PlaceExisting(tk, ino, 10*core.BlockSize); err != nil {
			t.Fatalf("PlaceExisting: %v", err)
		}
		if len(ino.Blocks) != 10 {
			t.Fatalf("placed %d blocks, want 10", len(ino.Blocks))
		}
		first := append([]int64(nil), ino.Blocks...)
		// Sticky: reading does not move it; re-placing is not done.
		for i, a := range ino.Blocks {
			if a != first[i] {
				t.Fatal("addresses moved")
			}
			if a < l.seg0 {
				t.Fatal("placed inside reserved area")
			}
		}
	})
}

func TestPlaceExistingRejectedOnReal(t *testing.T) {
	r := newRealRig(14, 2048)
	run(t, r.k, func(tk sched.Task) {
		r.l.Format(tk)
		r.l.Mount(tk)
		ino, _ := r.l.AllocInode(tk, core.TypeRegular)
		if err := r.l.PlaceExisting(tk, ino, core.BlockSize); err != layout.ErrNoPlaceExisting {
			t.Fatalf("PlaceExisting on real volume: %v", err)
		}
	})
}

func TestStatsRegistered(t *testing.T) {
	r := newRealRig(15, 2048)
	set := stats.NewSet()
	r.l.Stats(set)
	if set.Len() != 7 {
		t.Fatalf("stat sources = %d", set.Len())
	}
	if r.l.Name() != "lfs" || r.l.String() == "" {
		t.Fatal("descriptions wrong")
	}
}

func TestGreedyVsCostBenefitPick(t *testing.T) {
	segs := []SegState{
		{Index: 0, Live: 10, DataSlots: 15, Seq: 1, Cleanable: true}, // old, 5 dead
		{Index: 1, Live: 2, DataSlots: 15, Seq: 90, Cleanable: true}, // new, 13 dead
		{Index: 2, Live: 15, DataSlots: 15, Seq: 1, Cleanable: true}, // full
		{Index: 3, Live: 0, DataSlots: 15, Seq: 0, Cleanable: false}, // free
	}
	if v := (Greedy{}).Pick(segs, 100); v != 1 {
		t.Fatalf("greedy picked %d, want 1 (most dead)", v)
	}
	// Cost-benefit weighs age: segment 0 is much older; with u=0.67
	// score0=(0.33*100)/1.67=19.8 vs seg1 u=0.13 score=(0.87*11)/1.13=8.5.
	if v := (CostBenefit{}).Pick(segs, 100); v != 0 {
		t.Fatalf("cost-benefit picked %d, want 0 (old cold segment)", v)
	}
	empty := []SegState{{Index: 0, Live: 15, DataSlots: 15, Cleanable: true}}
	if v := (Greedy{}).Pick(empty, 5); v != -1 {
		t.Fatalf("greedy picked full segment %d", v)
	}
	if v := (CostBenefit{}).Pick(empty, 5); v != -1 {
		t.Fatalf("cost-benefit picked full segment %d", v)
	}
	if _, ok := NewCleanerPolicy("nope"); ok {
		t.Fatal("unknown cleaner accepted")
	}
}

// nullDriver accepts any request without touching data: the layout
// tests' stand-in for the simulated disk stack.
type nullDriver struct {
	k      sched.Kernel
	blocks int64
	st     *device.DriverStats
}

func newNullDriver(k sched.Kernel, blocks int64) device.Driver {
	return &nullDriver{k: k, blocks: blocks}
}

func (d *nullDriver) Name() string { return "null" }
func (d *nullDriver) Submit(t sched.Task, r *device.Request) {
	panic("null driver: use Do")
}
func (d *nullDriver) Wait(t sched.Task, r *device.Request) {}
func (d *nullDriver) Do(t sched.Task, r *device.Request) error {
	t.Sleep(100 * time.Microsecond) // token latency
	return nil
}
func (d *nullDriver) QueueLen() int                    { return 0 }
func (d *nullDriver) CapacityBlocks() int64            { return d.blocks }
func (d *nullDriver) DriverStats() *device.DriverStats { return d.st }
func (d *nullDriver) SetInjector(device.Interceptor)   {}
func (d *nullDriver) Close() error                     { return nil }

var _ = fmt.Sprintf
