package ffs

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/layout"
	"repro/internal/sched"
)

// TestRecoverClearsCrossLink points file b's block 0 at file a's
// block 0 (the record is written synchronously), crashes and
// recovers: the repair clears the second claim and names it, and
// Check accepts what it left.
func TestRecoverClearsCrossLink(t *testing.T) {
	r := newRig(25, 2048)
	run(t, r.k, func(tk sched.Task) {
		r.f.Format(tk)
		r.f.Mount(tk)
		a, _ := r.f.AllocInode(tk, core.TypeRegular)
		if err := writeN(tk, r.f, a, 0, 2, 0xA1); err != nil {
			t.Fatalf("write a: %v", err)
		}
		b, _ := r.f.AllocInode(tk, core.TypeRegular)
		if err := writeN(tk, r.f, b, 0, 1, 0xB1); err != nil {
			t.Fatalf("write b: %v", err)
		}
		b.Blocks[0] = a.Blocks[0]
		if err := r.f.UpdateInode(tk, b); err != nil {
			t.Fatalf("UpdateInode: %v", err)
		}
		if err := r.f.Sync(tk); err != nil {
			t.Fatalf("Sync: %v", err)
		}

		f2 := r.reopen()
		st, err := f2.Recover(tk)
		if err != nil {
			t.Fatalf("Recover: %v", err)
		}
		if errs := f2.Check(tk); len(errs) != 0 {
			t.Fatalf("fsck dirty after recovery: %v", errs)
		}
		want := fmt.Sprintf("f%d/b0", b.ID)
		named := false
		for _, rep := range st.Repairs {
			named = named || strings.Contains(rep, want)
		}
		if !named {
			t.Fatalf("repairs %q do not name the cleared pointer %s", st.Repairs, want)
		}
		a2, err := f2.GetInode(tk, a.ID)
		if err != nil {
			t.Fatalf("GetInode a: %v", err)
		}
		got := make([]byte, core.BlockSize)
		readOne(tk, f2, a2, 0, got)
		if got[0] != 0xA1 {
			t.Fatalf("first claimant's block = %#x, want 0xA1", got[0])
		}
		f3 := r.reopen()
		if err := f3.Mount(tk); err != nil {
			t.Fatalf("remount: %v", err)
		}
		if errs := f3.Check(tk); len(errs) != 0 {
			t.Fatalf("fsck dirty after remount: %v", errs)
		}
	})
}

// FuzzRecoverThenCheck overwrites bytes past the superblock of a small
// crashed image that holds files (bitmaps, inode tables, indirect and
// data blocks): Recover must fail or leave a volume Check accepts, and
// neither may panic.
func FuzzRecoverThenCheck(f *testing.F) {
	const blocks = 1 + 3*64 // three 64-block groups behind the superblock
	img := crashedImage(f, blocks)
	used := usedBlocks(img)                                          // group 0's bitmaps and inode table come first
	f.Add(uint16(2), uint16(3*layout.InodeSize), []byte{0xFF, 0xFF}) // inode 3's record
	f.Add(uint16(1), uint16(0), []byte{0})                           // the data bitmap
	f.Add(uint16(len(used)-1), uint16(8), bytes.Repeat([]byte{0x5A}, 64))
	f.Fuzz(func(t *testing.T, which, off uint16, data []byte) {
		// Aim at a block the image uses, past the superblock.
		blk := used[int(which)%len(used)]
		mut := append([]byte(nil), img...)
		copy(mut[blk*core.BlockSize+int(off)%core.BlockSize:], data)
		k := sched.NewVirtual(1)
		drv := device.NewMemDriver(k, "mem0", blocks, nil)
		run(t, k, func(tk sched.Task) {
			if err := drv.Do(tk, &device.Request{Op: device.OpWrite, Addr: core.DiskAddr{LBA: 0},
				Blocks: blocks, Data: mut}); err != nil {
				t.Fatalf("load image: %v", err)
			}
			v := New(k, "vol0", layout.NewPartition(drv, 0, 0, blocks, false), Config{})
			if _, err := v.Recover(tk); err != nil {
				return
			}
			if errs := v.Check(tk); len(errs) != 0 {
				t.Fatalf("recovered volume fails its check: %v", errs)
			}
		})
	})
}

// crashedImage writes files (one with an indirect block), syncs the
// bitmaps, then writes, grows and frees without a sync, and returns
// the device's bytes: durable inode records over stale bitmaps.
func crashedImage(tb testing.TB, blocks int64) []byte {
	k := sched.NewVirtual(3)
	drv := device.NewMemDriver(k, "mem0", blocks, nil)
	v := New(k, "vol0", layout.NewPartition(drv, 0, 0, blocks, false), Config{BlocksPerGroup: 64, InodesPerGroup: 32})
	img := make([]byte, blocks*core.BlockSize)
	build := func(tk sched.Task) error {
		if err := v.Format(tk); err != nil {
			return err
		}
		if err := v.Mount(tk); err != nil {
			return err
		}
		var inos []*layout.Inode
		for i, n := range []int{3, 14, 1} {
			ino, err := v.AllocInode(tk, core.TypeRegular)
			if err != nil {
				return err
			}
			inos = append(inos, ino)
			if err := writeN(tk, v, ino, 0, n, byte(0x10*(i+1))); err != nil {
				return err
			}
		}
		if err := v.Sync(tk); err != nil {
			return err
		}
		if err := writeN(tk, v, inos[2], 1, 20, 0x80); err != nil {
			return err
		}
		if err := v.FreeInode(tk, inos[1].ID); err != nil {
			return err
		}
		return drv.Do(tk, &device.Request{Op: device.OpRead, Addr: core.DiskAddr{LBA: 0}, Blocks: int(blocks), Data: img})
	}
	var err error
	k.Go("image", func(tk sched.Task) {
		err = build(tk)
		k.Stop()
	})
	if rerr := k.Run(); rerr != nil || err != nil {
		tb.Fatalf("building the image: %v %v", rerr, err)
	}
	return img
}

// writeN writes blocks [from, from+n) of ino, each filled with a
// byte derived from fill and its index, and grows the size to cover
// them.
func writeN(tk sched.Task, f *FFS, ino *layout.Inode, from, n int, fill byte) error {
	var ws []layout.BlockWrite
	for i := from; i < from+n; i++ {
		ws = append(ws, layout.BlockWrite{Blk: core.BlockNo(i), Data: blockOf(fill + byte(i)), Size: core.BlockSize})
	}
	if end := int64(from+n) * core.BlockSize; end > ino.Size {
		ino.Size = end
	}
	return f.WriteBlocks(tk, ino, ws)
}

// usedBlocks lists the blocks of img past the superblock that hold a
// nonzero byte.
func usedBlocks(img []byte) []int {
	var used []int
	for b := 1; b < len(img)/core.BlockSize; b++ {
		if slices.ContainsFunc(img[b*core.BlockSize:(b+1)*core.BlockSize], func(c byte) bool { return c != 0 }) {
			used = append(used, b)
		}
	}
	return used
}

// TestCheckFlagsEachInvariant plants one violation of each invariant
// Check documents into a synced volume and expects a finding naming it.
func TestCheckFlagsEachInvariant(t *testing.T) {
	bit := func(f *FFS, addr int64) (bitset, int) {
		g, i, _ := f.locateData(addr)
		return f.dataBits[g], i
	}
	for _, c := range []struct {
		name, want string
		plant      func(f *FFS, a, b *layout.Inode)
	}{
		{"out-of-range", "outside any group's data area", func(f *FFS, a, b *layout.Inode) { a.Blocks[1] = gDataBitmap + 1 }},
		{"cross-link", "claimed by both", func(f *FFS, a, b *layout.Inode) { b.Blocks[0] = a.Blocks[0] }},
		{"claimed-but-free", "free in the data bitmap", func(f *FFS, a, b *layout.Inode) {
			bs, i := bit(f, a.Blocks[0])
			bs.clear(i)
		}},
		{"leak", "leaks 1 data blocks", func(f *FFS, a, b *layout.Inode) {
			bs, i := bit(f, a.Blocks[0])
			bs.set(i + 100)
		}},
		{"record-for-free-inode", "has a record but is free", func(f *FFS, a, b *layout.Inode) {
			f.inoBits[0].clear(int(a.ID))
		}},
		{"allocation-without-record", "has no record", func(f *FFS, a, b *layout.Inode) { f.inoBits[0].set(40) }},
		{"torn-bitmap", "torn write", func(f *FFS, a, b *layout.Inode) {
			f.tornMeta = append(f.tornMeta, "group 0 data bitmap checksum mismatch (torn write)")
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := newRig(42, 2048)
			run(t, r.k, func(tk sched.Task) {
				r.f.Format(tk)
				r.f.Mount(tk)
				a, _ := r.f.AllocInode(tk, core.TypeRegular)
				b, _ := r.f.AllocInode(tk, core.TypeRegular)
				if writeN(tk, r.f, a, 0, 2, 1) != nil || writeN(tk, r.f, b, 0, 1, 3) != nil || r.f.Sync(tk) != nil {
					t.Fatal("setup failed")
				}
				if errs := r.f.Check(tk); len(errs) != 0 {
					t.Fatalf("dirty before planting: %v", errs)
				}
				c.plant(r.f, a, b)
				errs := r.f.Check(tk)
				for _, e := range errs {
					if strings.Contains(e.Error(), c.want) {
						return
					}
				}
				t.Errorf("no finding contains %q: %v", c.want, errs)
			})
		})
	}
}
