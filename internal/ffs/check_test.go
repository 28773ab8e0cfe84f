package ffs

import (
	"testing"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/sched"
)

// reopen builds a fresh FFS over the rig's device, as after a crash.
func (r *rig) reopen() *FFS {
	part := layout.NewPartition(r.drv, 0, 0, r.drv.CapacityBlocks(), false)
	return New(r.k, "vol0", part, Config{})
}

// TestCheckCleanAfterSync verifies a synced volume passes fsck.
func TestCheckCleanAfterSync(t *testing.T) {
	r := newRig(21, 2048)
	run(t, r.k, func(tk sched.Task) {
		r.f.Format(tk)
		r.f.Mount(tk)
		ino, _ := r.f.AllocInode(tk, core.TypeRegular)
		ino.Size = 2 * core.BlockSize
		r.f.WriteBlocks(tk, ino, []layout.BlockWrite{
			{Blk: 0, Data: blockOf(1), Size: core.BlockSize},
			{Blk: 1, Data: blockOf(2), Size: core.BlockSize},
		})
		r.f.Sync(tk)
		if errs := r.f.Check(tk); len(errs) != 0 {
			t.Fatalf("clean volume flagged: %v", errs)
		}
		f2 := r.reopen()
		if err := f2.Mount(tk); err != nil {
			t.Fatalf("remount: %v", err)
		}
		if errs := f2.Check(tk); len(errs) != 0 {
			t.Fatalf("remounted clean volume flagged: %v", errs)
		}
	})
}

// TestCheckFlagsStaleBitmaps crashes before Sync: the inode records
// are durable, the bitmaps are stale, and Check must say so.
func TestCheckFlagsStaleBitmaps(t *testing.T) {
	r := newRig(22, 2048)
	run(t, r.k, func(tk sched.Task) {
		r.f.Format(tk)
		r.f.Mount(tk)
		ino, _ := r.f.AllocInode(tk, core.TypeRegular)
		ino.Size = 2 * core.BlockSize
		r.f.WriteBlocks(tk, ino, []layout.BlockWrite{
			{Blk: 0, Data: blockOf(1), Size: core.BlockSize},
			{Blk: 1, Data: blockOf(2), Size: core.BlockSize},
		})
		// No Sync: crash. The fresh incarnation reads stale bitmaps.
		f2 := r.reopen()
		if err := f2.Mount(tk); err != nil {
			t.Fatalf("remount: %v", err)
		}
		if errs := f2.Check(tk); len(errs) == 0 {
			t.Fatal("stale bitmaps not flagged")
		}
	})
}

// TestRepairRebuildsFromInodeTable repairs the crashed volume of the
// previous test to a state fsck accepts, with the data intact.
func TestRepairRebuildsFromInodeTable(t *testing.T) {
	r := newRig(23, 2048)
	run(t, r.k, func(tk sched.Task) {
		r.f.Format(tk)
		r.f.Mount(tk)
		ino, _ := r.f.AllocInode(tk, core.TypeRegular)
		id := ino.ID
		ino.Size = 2 * core.BlockSize
		r.f.WriteBlocks(tk, ino, []layout.BlockWrite{
			{Blk: 0, Data: blockOf(0x5A), Size: core.BlockSize},
			{Blk: 1, Data: blockOf(0x6B), Size: core.BlockSize},
		})
		// Crash without Sync, then recover.
		f2 := r.reopen()
		st, err := f2.Recover(tk)
		if err != nil {
			t.Fatalf("Recover: %v", err)
		}
		if len(st.Repairs) == 0 {
			t.Fatalf("no repairs reported for stale bitmaps: %+v", st)
		}
		if errs := f2.Check(tk); len(errs) != 0 {
			t.Fatalf("fsck dirty after repair: %v", errs)
		}
		ino2, err := f2.GetInode(tk, id)
		if err != nil {
			t.Fatalf("GetInode after repair: %v", err)
		}
		got := make([]byte, core.BlockSize)
		readOne(tk, f2, ino2, 0, got)
		if got[0] != 0x5A {
			t.Fatalf("block 0 = %#x after repair, want 0x5A", got[0])
		}
		// Allocation keeps working against the rebuilt bitmaps.
		if _, err := f2.AllocInode(tk, core.TypeRegular); err != nil {
			t.Fatalf("alloc after repair: %v", err)
		}
	})
}

// TestRepairReclaimsDeletedFile deletes a file, crashes before the
// bitmap sync, and checks repair reclaims its blocks instead of
// resurrecting it (FreeInode clears the record durably).
func TestRepairReclaimsDeletedFile(t *testing.T) {
	r := newRig(24, 2048)
	run(t, r.k, func(tk sched.Task) {
		r.f.Format(tk)
		r.f.Mount(tk)
		keep, _ := r.f.AllocInode(tk, core.TypeRegular)
		keep.Size = core.BlockSize
		r.f.WriteBlocks(tk, keep, []layout.BlockWrite{{Blk: 0, Data: blockOf(1), Size: core.BlockSize}})
		gone, _ := r.f.AllocInode(tk, core.TypeRegular)
		goneID := gone.ID
		gone.Size = core.BlockSize
		r.f.WriteBlocks(tk, gone, []layout.BlockWrite{{Blk: 0, Data: blockOf(2), Size: core.BlockSize}})
		r.f.Sync(tk)
		if err := r.f.FreeInode(tk, goneID); err != nil {
			t.Fatalf("FreeInode: %v", err)
		}
		// Crash before the bitmap sync: the bitmaps still say the
		// deleted file exists.
		f2 := r.reopen()
		if _, err := f2.Recover(tk); err != nil {
			t.Fatalf("Recover: %v", err)
		}
		if errs := f2.Check(tk); len(errs) != 0 {
			t.Fatalf("fsck dirty after repair: %v", errs)
		}
		if _, err := f2.GetInode(tk, goneID); err != core.ErrNotFound {
			t.Fatalf("deleted file resurrected: %v", err)
		}
		if _, err := f2.GetInode(tk, keep.ID); err != nil {
			t.Fatalf("surviving file lost: %v", err)
		}
	})
}
