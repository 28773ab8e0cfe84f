package lfs

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
// block 0, makes the cross-link durable, crashes and recovers.
// Recovery must clear the second claim and name it, and Check must
// then accept the volume it left: no cross-link, no usage mismatch.
func TestRecoverClearsCrossLink(t *testing.T) {
	r := newCrashRig(14, 4096)
	run(t, r.k, func(tk sched.Task) {
		r.l.Format(tk)
		r.l.Mount(tk)
		a, _ := r.l.AllocInode(tk, core.TypeRegular)
		if err := writeFile(tk, r.l, a, 0xA1, 0xA2); err != nil {
			t.Fatalf("write a: %v", err)
		}
		b, _ := r.l.AllocInode(tk, core.TypeRegular)
		if err := writeFile(tk, r.l, b, 0xB1); err != nil {
			t.Fatalf("write b: %v", err)
		}
		b.Blocks[0] = a.Blocks[0]
		if err := r.l.UpdateInode(tk, b); err != nil {
			t.Fatalf("UpdateInode: %v", err)
		}
		if err := r.l.Sync(tk); err != nil {
			t.Fatalf("Sync: %v", err)
		}

		l2, st := r.recoverFresh(tk, t)
		if errs := l2.Check(tk); len(errs) != 0 {
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
		a2, err := l2.GetInode(tk, a.ID)
		if err != nil {
			t.Fatalf("GetInode a: %v", err)
		}
		got := make([]byte, core.BlockSize)
		readOne(tk, l2, a2, 0, got)
		if got[0] != 0xA1 {
			t.Fatalf("first claimant's block = %#x, want 0xA1", got[0])
		}
		b2, err := l2.GetInode(tk, b.ID)
		if err != nil {
			t.Fatalf("GetInode b: %v", err)
		}
		if addr := b2.BlockAddr(0); addr >= 0 {
			t.Fatalf("second claimant still points at %d", addr)
		}
		// What recovery wrote back survives a plain remount.
		l3 := New(r.k, "vol0", layout.NewPartition(r.drv, 0, 0, r.drv.CapacityBlocks(), false), Config{})
		if err := l3.Mount(tk); err != nil {
			t.Fatalf("remount: %v", err)
		}
		mustClean(t, tk, l3, "after remount")
	})
}

// FuzzRecoverThenCheck overwrites bytes past the superblock of a small
// crashed image that holds files (checkpoint regions, summaries, inode
// blocks, data): Recover must fail or leave a volume Check accepts,
// and neither may panic.
func FuzzRecoverThenCheck(f *testing.F) {
	const blocks = 512
	img := crashedImage(f, blocks)
	used := usedBlocks(img) // the checkpoint regions, then the log
	f.Add(uint16(0), uint16(8), []byte{0xFF})
	f.Add(uint16(len(used)/2), uint16(0), []byte{1, 2, 3})
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
			l := New(k, "vol0", layout.NewPartition(drv, 0, 0, blocks, false), Config{})
			if _, err := l.Recover(tk); err != nil {
				return
			}
			if errs := l.Check(tk); len(errs) != 0 {
				t.Fatalf("recovered volume fails its check: %v", errs)
			}
		})
	})
}

// crashedImage writes files (one with an indirect block), syncs, then
// writes more without a sync, and returns the device's bytes: a
// checkpoint plus a log tail for roll-forward.
func crashedImage(tb testing.TB, blocks int64) []byte {
	k := sched.NewVirtual(3)
	drv := device.NewMemDriver(k, "mem0", blocks, nil)
	l := New(k, "vol0", layout.NewPartition(drv, 0, 0, blocks, false), Config{SegBlocks: 16, MaxInodes: 1 << 10})
	img := make([]byte, blocks*core.BlockSize)
	build := func(tk sched.Task) error {
		if err := l.Format(tk); err != nil {
			return err
		}
		if err := l.Mount(tk); err != nil {
			return err
		}
		var inos []*layout.Inode
		for i, n := range []int{3, 14, 1} {
			ino, err := l.AllocInode(tk, core.TypeRegular)
			if err != nil {
				return err
			}
			inos = append(inos, ino)
			if err := writeN(tk, l, ino, 0, n, byte(0x10*(i+1))); err != nil {
				return err
			}
		}
		if err := l.Sync(tk); err != nil {
			return err
		}
		// Post-checkpoint: rewrite one file, grow another, free one.
		if err := writeN(tk, l, inos[0], 0, 2, 0x70); err != nil {
			return err
		}
		if err := writeN(tk, l, inos[2], 1, 20, 0x80); err != nil {
			return err
		}
		if err := l.FreeInode(tk, inos[1].ID); err != nil {
			return err
		}
		if err := l.WriteBarrier(tk); err != nil {
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
func writeN(tk sched.Task, l *LFS, ino *layout.Inode, from, n int, fill byte) error {
	var ws []layout.BlockWrite
	for i := from; i < from+n; i++ {
		ws = append(ws, layout.BlockWrite{Blk: core.BlockNo(i), Data: blockOf(fill + byte(i)), Size: core.BlockSize})
	}
	if end := int64(from+n) * core.BlockSize; end > ino.Size {
		ino.Size = end
	}
	return l.WriteBlocks(tk, ino, ws)
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
	for _, c := range []struct {
		name, want string
		plant      func(l *LFS, a, b *layout.Inode)
	}{
		{"out-of-range", "outside any segment", func(l *LFS, a, b *layout.Inode) { a.Blocks[1] = 1 }},
		{"summary-block", "outside any segment", func(l *LFS, a, b *layout.Inode) { a.Blocks[1] = l.segStart(l.segOf(a.Blocks[0])) }},
		{"cross-link", "claimed by both", func(l *LFS, a, b *layout.Inode) { b.Blocks[0] = a.Blocks[0] }},
		{"usage-count", "usage: table says", func(l *LFS, a, b *layout.Inode) { l.sut[l.segOf(a.Blocks[0])].live++ }},
		{"free-but-reachable", "free segment", func(l *LFS, a, b *layout.Inode) { l.sut[l.segOf(a.Blocks[0])].state = segFree }},
		{"bad-state", "has state 9", func(l *LFS, a, b *layout.Inode) { l.sut[l.segOf(a.Blocks[0])].state = 9 }},
		{"free-list-twice", "on free list twice", func(l *LFS, a, b *layout.Inode) { l.freeSegs = append(l.freeSegs, l.freeSegs[0]) }},
		{"free-list-invalid", "invalid segment", func(l *LFS, a, b *layout.Inode) { l.freeSegs = append(l.freeSegs, l.nsegs) }},
		{"unreadable-inode", "unreadable", func(l *LFS, a, b *layout.Inode) {
			delete(l.inodes, a.ID)
			l.imap[a.ID].slot = layout.InodesPerBlk
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := newRealRig(41, 1024)
			run(t, r.k, func(tk sched.Task) {
				r.l.Format(tk)
				r.l.Mount(tk)
				a, _ := r.l.AllocInode(tk, core.TypeRegular)
				b, _ := r.l.AllocInode(tk, core.TypeRegular)
				if writeFile(tk, r.l, a, 1, 2) != nil || writeFile(tk, r.l, b, 3) != nil || r.l.Sync(tk) != nil {
					t.Fatal("setup failed")
				}
				mustClean(t, tk, r.l, "before planting")
				c.plant(r.l, a, b)
				errs := r.l.Check(tk)
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
