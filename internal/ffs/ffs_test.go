package ffs

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/layout"
	"repro/internal/sched"
)

type rig struct {
	k   *sched.VKernel
	drv device.Driver
	f   *FFS
}

func newRig(seed int64, blocks int64) *rig {
	k := sched.NewVirtual(seed)
	drv := device.NewMemDriver(k, "mem0", blocks, nil)
	part := layout.NewPartition(drv, 0, 0, blocks, false)
	f := New(k, "vol0", part, Config{BlocksPerGroup: 512, InodesPerGroup: 64})
	return &rig{k: k, drv: drv, f: f}
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

func TestFormatMountWriteRead(t *testing.T) {
	r := newRig(1, 2048)
	run(t, r.k, func(tk sched.Task) {
		if err := r.f.Format(tk); err != nil {
			t.Fatalf("Format: %v", err)
		}
		if err := r.f.Mount(tk); err != nil {
			t.Fatalf("Mount: %v", err)
		}
		ino, err := r.f.AllocInode(tk, core.TypeRegular)
		if err != nil {
			t.Fatalf("AllocInode: %v", err)
		}
		ino.Size = 2 * core.BlockSize
		err = r.f.WriteBlocks(tk, ino, []layout.BlockWrite{
			{Blk: 0, Data: blockOf(0xA1), Size: core.BlockSize},
			{Blk: 1, Data: blockOf(0xB2), Size: core.BlockSize},
		})
		if err != nil {
			t.Fatalf("WriteBlocks: %v", err)
		}
		got := make([]byte, core.BlockSize)
		readOne(tk, r.f, ino, 1, got)
		if !bytes.Equal(got, blockOf(0xB2)) {
			t.Fatal("read-back mismatch")
		}
	})
}

func TestInPlaceOverwrite(t *testing.T) {
	r := newRig(2, 2048)
	run(t, r.k, func(tk sched.Task) {
		r.f.Format(tk)
		r.f.Mount(tk)
		ino, _ := r.f.AllocInode(tk, core.TypeRegular)
		ino.Size = core.BlockSize
		r.f.WriteBlocks(tk, ino, []layout.BlockWrite{{Blk: 0, Data: blockOf(1), Size: core.BlockSize}})
		a1 := ino.BlockAddr(0)
		r.f.WriteBlocks(tk, ino, []layout.BlockWrite{{Blk: 0, Data: blockOf(2), Size: core.BlockSize}})
		a2 := ino.BlockAddr(0)
		if a1 != a2 {
			t.Fatalf("FFS moved a block on overwrite: %d → %d", a1, a2)
		}
	})
}

func TestRemountRecovers(t *testing.T) {
	r := newRig(3, 2048)
	run(t, r.k, func(tk sched.Task) {
		r.f.Format(tk)
		r.f.Mount(tk)
		ino, _ := r.f.AllocInode(tk, core.TypeRegular)
		id := ino.ID
		ino.Size = core.BlockSize
		r.f.WriteBlocks(tk, ino, []layout.BlockWrite{{Blk: 0, Data: blockOf(0xCD), Size: core.BlockSize}})
		r.f.Sync(tk)
		f2 := New(r.k, "vol0", layout.NewPartition(r.drv, 0, 0, r.drv.CapacityBlocks(), false), Config{})
		if err := f2.Mount(tk); err != nil {
			t.Fatalf("remount: %v", err)
		}
		ino2, err := f2.GetInode(tk, id)
		if err != nil {
			t.Fatalf("GetInode: %v", err)
		}
		got := make([]byte, core.BlockSize)
		readOne(tk, f2, ino2, 0, got)
		if !bytes.Equal(got, blockOf(0xCD)) {
			t.Fatal("data lost across remount")
		}
	})
}

func TestIndirectFileRemount(t *testing.T) {
	r := newRig(4, 4096)
	n := layout.NDirect + 8
	run(t, r.k, func(tk sched.Task) {
		r.f.Format(tk)
		r.f.Mount(tk)
		ino, _ := r.f.AllocInode(tk, core.TypeRegular)
		id := ino.ID
		var ws []layout.BlockWrite
		for i := 0; i < n; i++ {
			ws = append(ws, layout.BlockWrite{Blk: core.BlockNo(i), Data: blockOf(byte(i + 1)), Size: core.BlockSize})
		}
		ino.Size = int64(n) * core.BlockSize
		if err := r.f.WriteBlocks(tk, ino, ws); err != nil {
			t.Fatalf("WriteBlocks: %v", err)
		}
		r.f.Sync(tk)
		f2 := New(r.k, "vol0", layout.NewPartition(r.drv, 0, 0, r.drv.CapacityBlocks(), false), Config{})
		f2.Mount(tk)
		ino2, err := f2.GetInode(tk, id)
		if err != nil {
			t.Fatalf("GetInode: %v", err)
		}
		got := make([]byte, core.BlockSize)
		readOne(tk, f2, ino2, core.BlockNo(n-1), got)
		if got[0] != byte(n) {
			t.Fatalf("indirect block lost: %#x", got[0])
		}
	})
}

func TestFreeInodeReleasesSpace(t *testing.T) {
	r := newRig(5, 2048)
	run(t, r.k, func(tk sched.Task) {
		r.f.Format(tk)
		r.f.Mount(tk)
		before := r.f.FreeBlocks(tk)
		ino, _ := r.f.AllocInode(tk, core.TypeRegular)
		ino.Size = 4 * core.BlockSize
		var ws []layout.BlockWrite
		for i := 0; i < 4; i++ {
			ws = append(ws, layout.BlockWrite{Blk: core.BlockNo(i), Data: blockOf(1), Size: core.BlockSize})
		}
		r.f.WriteBlocks(tk, ino, ws)
		if r.f.FreeBlocks(tk) != before-4 {
			t.Fatalf("free space %d, want %d", r.f.FreeBlocks(tk), before-4)
		}
		r.f.FreeInode(tk, ino.ID)
		if r.f.FreeBlocks(tk) != before {
			t.Fatalf("space not reclaimed: %d vs %d", r.f.FreeBlocks(tk), before)
		}
		if _, err := r.f.GetInode(tk, ino.ID); err != core.ErrNotFound {
			t.Fatalf("freed inode still readable: %v", err)
		}
	})
}

func TestTruncate(t *testing.T) {
	r := newRig(6, 2048)
	run(t, r.k, func(tk sched.Task) {
		r.f.Format(tk)
		r.f.Mount(tk)
		ino, _ := r.f.AllocInode(tk, core.TypeRegular)
		ino.Size = 3 * core.BlockSize
		var ws []layout.BlockWrite
		for i := 0; i < 3; i++ {
			ws = append(ws, layout.BlockWrite{Blk: core.BlockNo(i), Data: blockOf(1), Size: core.BlockSize})
		}
		r.f.WriteBlocks(tk, ino, ws)
		free := r.f.FreeBlocks(tk)
		r.f.Truncate(tk, ino, core.BlockSize)
		if r.f.FreeBlocks(tk) != free+2 {
			t.Fatalf("truncate freed %d, want 2", r.f.FreeBlocks(tk)-free)
		}
	})
}

func TestDirectorySpreadFilesCluster(t *testing.T) {
	r := newRig(7, 4096) // multiple groups
	run(t, r.k, func(tk sched.Task) {
		r.f.Format(tk)
		r.f.Mount(tk)
		d1, _ := r.f.AllocInode(tk, core.TypeDirectory)
		d2, _ := r.f.AllocInode(tk, core.TypeDirectory)
		g1 := int(d1.ID) / r.f.cfg.InodesPerGroup
		g2 := int(d2.ID) / r.f.cfg.InodesPerGroup
		if r.f.ngroups > 1 && g1 == g2 {
			t.Fatalf("directories not spread: both in group %d", g1)
		}
	})
}

func TestSimulatedFFS(t *testing.T) {
	k := sched.NewVirtual(8)
	part := layout.NewPartition(nullDriver{k, 4096}, 0, 0, 4096, true)
	f := New(k, "simvol", part, Config{BlocksPerGroup: 512, InodesPerGroup: 64})
	run(t, k, func(tk sched.Task) {
		f.Format(tk)
		f.Mount(tk)
		ino, err := f.AllocInode(tk, core.TypeRegular)
		if err != nil {
			t.Fatalf("AllocInode: %v", err)
		}
		ino.Size = core.BlockSize
		if err := f.WriteBlocks(tk, ino, []layout.BlockWrite{{Blk: 0, Size: core.BlockSize}}); err != nil {
			t.Fatalf("sim write: %v", err)
		}
		if err := f.PlaceExisting(tk, ino, 0); err != nil {
			t.Fatalf("PlaceExisting: %v", err)
		}
	})
}

func TestStats(t *testing.T) {
	r := newRig(9, 2048)
	if r.f.Name() != "ffs" || r.f.String() == "" {
		t.Fatal("descriptions wrong")
	}
}

type nullDriver struct {
	k      sched.Kernel
	blocks int64
}

func (d nullDriver) Name() string                           { return "null" }
func (d nullDriver) Submit(t sched.Task, r *device.Request) {}
func (d nullDriver) Wait(t sched.Task, r *device.Request)   {}
func (d nullDriver) Do(t sched.Task, r *device.Request) error {
	return nil
}
func (d nullDriver) QueueLen() int                    { return 0 }
func (d nullDriver) CapacityBlocks() int64            { return d.blocks }
func (d nullDriver) DriverStats() *device.DriverStats { return nil }
func (d nullDriver) SetInjector(device.Interceptor)   {}
func (d nullDriver) Close() error                     { return nil }

// TestNewFitsSmallPartition: the default 2048-block groups do not fit
// a 1024-block partition, so New picks small groups; the volume
// formats, takes a file, and remounts (with the default
// configuration again) clean.
func TestNewFitsSmallPartition(t *testing.T) {
	k := sched.NewVirtual(1)
	drv := device.NewMemDriver(k, "mem0", 1024, nil)
	f := New(k, "small", layout.NewPartition(drv, 0, 0, 1024, false), DefaultConfig())
	run(t, k, func(tk sched.Task) {
		if err := f.Format(tk); err != nil {
			t.Fatalf("Format: %v", err)
		}
		if err := f.Mount(tk); err != nil {
			t.Fatalf("Mount: %v", err)
		}
		ino, err := f.AllocInode(tk, core.TypeRegular)
		if err != nil {
			t.Fatalf("AllocInode: %v", err)
		}
		ino.Size = core.BlockSize
		if err := f.WriteBlocks(tk, ino, []layout.BlockWrite{{Blk: 0, Data: blockOf(0x5A), Size: core.BlockSize}}); err != nil {
			t.Fatalf("WriteBlocks: %v", err)
		}
		if err := f.Sync(tk); err != nil {
			t.Fatalf("Sync: %v", err)
		}
		f2 := New(k, "small", layout.NewPartition(drv, 0, 0, 1024, false), DefaultConfig())
		if err := f2.Mount(tk); err != nil {
			t.Fatalf("remount: %v", err)
		}
		if errs := f2.Check(tk); len(errs) > 0 {
			t.Fatalf("Check after remount: %v", errs)
		}
		if f2.cfg != smallGroup {
			t.Fatalf("geometry %+v, want %+v", f2.cfg, smallGroup)
		}
	})
}
