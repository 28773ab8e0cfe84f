package ffs

import (
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/layout"
	"repro/internal/sched"
)

// rawSuper reads or writes the superblock below the layout.
func rawSuper(tk sched.Task, drv device.Driver, op device.Op, buf []byte) error {
	return drv.Do(tk, &device.Request{Op: op, Addr: core.DiskAddr{LBA: 0}, Blocks: 1, Data: buf})
}

// A damaged superblock field fails Mount and Recover with an error:
// no divide by zero, no index past a bitmap, no bitmaps allocated for
// a billion groups.
func TestCorruptSuperblockIsAnError(t *testing.T) {
	const ipg = 64 // the rig's InodesPerGroup
	dataStart := gInoTable + ipg/layout.InodesPerBlk
	for _, c := range []struct {
		name string
		off  int
		val  uint32
	}{
		{"magic", 0, 0x46465332},
		{"blocks-per-group-zero", 4, 0},
		{"blocks-per-group-huge", 4, 1 << 30},
		{"blocks-per-group-over-bitmap", 4, bitmapBits + 1},
		{"blocks-per-group-inside-tables", 4, uint32(dataStart)},
		{"blocks-per-group-other", 4, 256},
		{"inodes-per-group-zero", 8, 0},
		{"inodes-per-group-ragged", 8, ipg + 1},
		{"inodes-per-group-over-bitmap", 8, bitmapBits + layout.InodesPerBlk},
		{"inodes-per-group-fill-group", 8, 512 * layout.InodesPerBlk},
		{"groups-zero", 12, 0},
		{"groups-huge", 12, 1 << 30},
		{"groups-other", 12, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := newRig(61, 2048)
			run(t, r.k, func(tk sched.Task) {
				if err := r.f.Format(tk); err != nil {
					t.Fatalf("Format: %v", err)
				}
				buf := make([]byte, core.BlockSize)
				if err := rawSuper(tk, r.drv, device.OpRead, buf); err != nil {
					t.Fatal(err)
				}
				binary.LittleEndian.PutUint32(buf[c.off:], c.val)
				if err := rawSuper(tk, r.drv, device.OpWrite, buf); err != nil {
					t.Fatal(err)
				}

				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				errMount := r.reopen().Mount(tk)
				_, errRecover := r.reopen().Recover(tk)
				runtime.ReadMemStats(&after)
				if errMount == nil || errRecover == nil {
					t.Fatalf("damaged superblock accepted: Mount %v, Recover %v", errMount, errRecover)
				}
				if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
					t.Fatalf("rejecting the superblock allocated %d bytes", grew)
				}
				t.Log(errMount)
			})
		})
	}
	// The undamaged image still mounts and checks clean.
	r := newRig(61, 2048)
	run(t, r.k, func(tk sched.Task) {
		if err := r.f.Format(tk); err != nil {
			t.Fatalf("Format: %v", err)
		}
		f := r.reopen()
		if err := f.Mount(tk); err != nil {
			t.Fatalf("Mount: %v", err)
		}
		if errs := f.Check(tk); len(errs) > 0 {
			t.Fatalf("Check: %v", errs)
		}
	})
}

// FuzzMountFFS overwrites the head of a formatted volume's superblock
// with arbitrary bytes: Mount must fail or succeed, never panic, and a
// volume that mounts must survive its own check.
func FuzzMountFFS(f *testing.F) {
	const blocks = 129 // two 64-block groups behind the superblock
	cfg := Config{BlocksPerGroup: 64, InodesPerGroup: 32}
	seed := make([]byte, 16)
	le := binary.LittleEndian
	le.PutUint32(seed[0:], superMagic)
	le.PutUint32(seed[4:], 64)
	le.PutUint32(seed[8:], 32)
	le.PutUint32(seed[12:], 2)
	f.Add(seed)
	for _, off := range []int{4, 8, 12} {
		for _, v := range []uint32{0, 1, 1 << 30} {
			bad := append([]byte(nil), seed...)
			le.PutUint32(bad[off:], v)
			f.Add(bad)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		k := sched.NewVirtual(1)
		drv := device.NewMemDriver(k, "mem0", blocks, nil)
		part := layout.NewPartition(drv, 0, 0, blocks, false)
		run(t, k, func(tk sched.Task) {
			if err := New(k, "vol0", part, cfg).Format(tk); err != nil {
				t.Fatalf("Format: %v", err)
			}
			buf := make([]byte, core.BlockSize)
			if err := rawSuper(tk, drv, device.OpRead, buf); err != nil {
				t.Fatal(err)
			}
			copy(buf, data)
			if err := rawSuper(tk, drv, device.OpWrite, buf); err != nil {
				t.Fatal(err)
			}
			v := New(k, "vol0", part, Config{})
			if v.Mount(tk) == nil {
				_ = v.Check(tk)
			}
		})
	})
}
