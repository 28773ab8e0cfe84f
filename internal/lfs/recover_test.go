package lfs

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/layout"
	"repro/internal/sched"
)

// crashRig is an LFS over a RAM-backed device with a fault plan on
// the driver — the unit-level crash laboratory.
type crashRig struct {
	k    *sched.VKernel
	drv  device.Driver
	l    *LFS
	plan *device.FaultPlan
}

func newCrashRig(seed int64, blocks int64) *crashRig {
	k := sched.NewVirtual(seed)
	drv := device.NewMemDriver(k, "mem0", blocks, nil)
	part := layout.NewPartition(drv, 0, 0, blocks, false)
	l := New(k, "vol0", part, Config{SegBlocks: 16, MaxInodes: 1 << 12})
	return &crashRig{k: k, drv: drv, l: l}
}

// recoverFresh builds a fresh LFS over the crashed device (power
// restored) and runs recovery.
func (r *crashRig) recoverFresh(tk sched.Task, t *testing.T) (*LFS, layout.RecoveryStats) {
	t.Helper()
	r.drv.SetInjector(nil)
	part := layout.NewPartition(r.drv, 0, 0, r.drv.CapacityBlocks(), false)
	l2 := New(r.k, "vol0", part, Config{})
	st, err := l2.Recover(tk)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return l2, st
}

// TestRollForwardRecoversPostCheckpointWrites loses a checkpoint's
// worth of log tail and gets it back: data written (and flushed into
// full segments) after the last Sync must survive a crash.
func TestRollForwardRecoversPostCheckpointWrites(t *testing.T) {
	r := newCrashRig(11, 4096)
	run(t, r.k, func(tk sched.Task) {
		r.l.Format(tk)
		r.l.Mount(tk)
		ino, _ := r.l.AllocInode(tk, core.TypeRegular)
		if err := writeFile(tk, r.l, ino, 0x01, 0x02); err != nil {
			t.Fatalf("write: %v", err)
		}
		r.l.Sync(tk)

		// Post-checkpoint: overwrite block 0 and append 40 more, which
		// forces several full-segment flushes (15 data slots each);
		// the unflushed tail stays in memory and dies with the crash.
		var ws []layout.BlockWrite
		ws = append(ws, layout.BlockWrite{Blk: 0, Data: blockOf(0xA0), Size: core.BlockSize})
		for i := 2; i < 42; i++ {
			ws = append(ws, layout.BlockWrite{Blk: core.BlockNo(i), Data: blockOf(byte(i)), Size: core.BlockSize})
		}
		ino.Size = 42 * core.BlockSize
		if err := r.l.WriteBlocks(tk, ino, ws); err != nil {
			t.Fatalf("post-cp write: %v", err)
		}

		// Crash: fresh instance, recover, fsck.
		l2, st := r.recoverFresh(tk, t)
		if st.RolledSegments == 0 || st.DataBlocks == 0 {
			t.Fatalf("nothing rolled forward: %+v", st)
		}
		if errs := l2.Check(tk); len(errs) != 0 {
			t.Fatalf("fsck dirty after recovery: %v", errs)
		}
		ino2, err := l2.GetInode(tk, ino.ID)
		if err != nil {
			t.Fatalf("GetInode: %v", err)
		}
		// The checkpointed blocks must be intact, and the rolled-over
		// overwrite of block 0 must win over the checkpointed version.
		got := make([]byte, core.BlockSize)
		readOne(tk, l2, ino2, 0, got)
		if got[0] != 0xA0 {
			t.Fatalf("block 0 = %#x, want rolled-forward 0xA0", got[0])
		}
		readOne(tk, l2, ino2, 1, got)
		if got[0] != 0x02 {
			t.Fatalf("block 1 = %#x, want checkpointed 0x02", got[0])
		}
		// Every block that reached a flushed segment must be back.
		recovered := 0
		for i := 2; i < 42; i++ {
			if ino2.BlockAddr(core.BlockNo(i)) >= 0 {
				readOne(tk, l2, ino2, core.BlockNo(i), got)
				if got[0] != byte(i) {
					t.Fatalf("rolled block %d = %#x, want %#x", i, got[0], byte(i))
				}
				recovered++
			}
		}
		if recovered != st.DataBlocks-1 { // -1: the block-0 overwrite
			t.Fatalf("recovered %d appended blocks, stats say %d data blocks", recovered, st.DataBlocks)
		}
		if recovered < 20 {
			t.Fatalf("only %d of 40 appended blocks rolled forward", recovered)
		}
	})
}

// TestRollForwardOrphansUndurableFiles checks data of a file whose
// inode never reached the disk is dropped and counted, not leaked.
func TestRollForwardOrphansUndurableFiles(t *testing.T) {
	r := newCrashRig(12, 4096)
	run(t, r.k, func(tk sched.Task) {
		r.l.Format(tk)
		r.l.Mount(tk)
		r.l.Sync(tk)
		// File allocated after the sync: its imap entry and inode
		// record exist only in memory.
		ino, _ := r.l.AllocInode(tk, core.TypeRegular)
		var ws []layout.BlockWrite
		for i := 0; i < 20; i++ {
			ws = append(ws, layout.BlockWrite{Blk: core.BlockNo(i), Data: blockOf(0xEE), Size: core.BlockSize})
		}
		ino.Size = 20 * core.BlockSize
		r.l.WriteBlocks(tk, ino, ws)

		l2, st := r.recoverFresh(tk, t)
		if st.OrphanBlocks == 0 {
			t.Fatalf("expected orphan blocks, got %+v", st)
		}
		if _, err := l2.GetInode(tk, ino.ID); err != core.ErrNotFound {
			t.Fatalf("undurable file resurrected: %v", err)
		}
		if errs := l2.Check(tk); len(errs) != 0 {
			t.Fatalf("fsck dirty after orphan recovery: %v", errs)
		}
	})
}

// TestRollForwardStopsAtTornTail corrupts one rolled-forward block
// (as a torn multi-block segment write would) and checks recovery
// applies the intact prefix, stops there, and still checks clean.
func TestRollForwardStopsAtTornTail(t *testing.T) {
	r := newCrashRig(13, 4096)
	run(t, r.k, func(tk sched.Task) {
		r.l.Format(tk)
		r.l.Mount(tk)
		ino, _ := r.l.AllocInode(tk, core.TypeRegular)
		writeFile(tk, r.l, ino, 0x01)
		r.l.Sync(tk)
		var ws []layout.BlockWrite
		for i := 1; i < 20; i++ {
			ws = append(ws, layout.BlockWrite{Blk: core.BlockNo(i), Data: blockOf(byte(0x40 + i)), Size: core.BlockSize})
		}
		ino.Size = 20 * core.BlockSize
		r.l.WriteBlocks(tk, ino, ws)
		// Tear the flushed segment: blocks 1 and 2 reached the disk,
		// the slot holding block 3 did not (overwrite it raw).
		tornAddr := ino.BlockAddr(3)
		if tornAddr < 0 {
			t.Fatal("block 3 not flushed; widen the write")
		}
		if err := r.drv.Do(tk, &device.Request{
			Op: device.OpWrite, Addr: core.DiskAddr{Disk: 0, LBA: tornAddr},
			Blocks: 1, Data: blockOf(0xDD),
		}); err != nil {
			t.Fatalf("raw corrupt: %v", err)
		}

		l2, st := r.recoverFresh(tk, t)
		if !st.TornTail {
			t.Fatalf("torn tail not detected: %+v", st)
		}
		ino2, err := l2.GetInode(tk, ino.ID)
		if err != nil {
			t.Fatalf("GetInode: %v", err)
		}
		got := make([]byte, core.BlockSize)
		readOne(tk, l2, ino2, 1, got)
		if got[0] != 0x41 {
			t.Fatalf("pre-tear block 1 = %#x, want 0x41", got[0])
		}
		if a := ino2.BlockAddr(3); a == tornAddr {
			t.Fatal("torn block re-attached")
		}
		if errs := l2.Check(tk); len(errs) != 0 {
			t.Fatalf("fsck dirty after torn-tail recovery: %v", errs)
		}
	})
}

// TestPowerCutSweepNeverLosesBothCheckpoints is the dual-region
// regression: run a fixed workload of writes and syncs with a power
// cut injected at every possible I/O (torn writes included), and
// require that recovery always finds a valid checkpoint, mounts, and
// passes fsck — in particular a cut landing inside a checkpoint
// region write must leave the sibling region intact.
func TestPowerCutSweepNeverLosesBothCheckpoints(t *testing.T) {
	script := func(tk sched.Task, l *LFS) {
		// Errors are expected once the cut trips; the script just
		// keeps issuing its fixed plan.
		ino, err := l.AllocInode(tk, core.TypeRegular)
		if err != nil {
			return
		}
		for phase := byte(1); phase <= 3; phase++ {
			n := 8
			if phase == 2 {
				n = 24 // spills over a 15-slot segment mid-phase
			}
			var ws []layout.BlockWrite
			for i := 0; i < n; i++ {
				ws = append(ws, layout.BlockWrite{Blk: core.BlockNo(i), Data: blockOf(phase), Size: core.BlockSize})
			}
			ino.Size = int64(n) * core.BlockSize
			if l.WriteBlocks(tk, ino, ws) != nil {
				return
			}
			if l.Sync(tk) != nil {
				return
			}
		}
	}

	// Dry run: count the I/Os the script performs.
	var total int64
	{
		r := newCrashRig(20, 4096)
		plan := device.NewFaultPlan(device.FaultConfig{})
		run(t, r.k, func(tk sched.Task) {
			r.l.Format(tk)
			r.l.Mount(tk)
			r.drv.SetInjector(plan)
			script(tk, r.l)
		})
		total = plan.IOs()
	}
	if total < 8 {
		t.Fatalf("dry run did only %d I/Os", total)
	}

	for k := int64(1); k <= total; k++ {
		r := newCrashRig(20, 4096)
		plan := device.NewFaultPlan(device.FaultConfig{Seed: k, CutAfterIO: k, CutTearsWrite: true})
		run(t, r.k, func(tk sched.Task) {
			r.l.Format(tk)
			r.l.Mount(tk)
			r.drv.SetInjector(plan) // injected only after format: mkfs is not atomic
			script(tk, r.l)

			l2, _ := r.recoverFresh(tk, t)
			if errs := l2.Check(tk); len(errs) != 0 {
				t.Fatalf("cut at I/O %d: fsck dirty after recovery: %v", k, errs)
			}
			// The recovered volume must keep allocating without
			// colliding with recovered files.
			seen := map[core.FileID]bool{}
			for _, id := range l2.LiveInodes(tk) {
				seen[id] = true
			}
			nino, err := l2.AllocInode(tk, core.TypeRegular)
			if err != nil {
				t.Fatalf("cut at I/O %d: alloc after recovery: %v", k, err)
			}
			if seen[nino.ID] {
				t.Fatalf("cut at I/O %d: recovered allocator reissued live inode %d", k, nino.ID)
			}
			// Any readable file block must hold one of the phase
			// patterns — torn garbage must never surface.
			for _, id := range l2.LiveInodes(tk) {
				ino2, err := l2.GetInode(tk, id)
				if err != nil {
					t.Fatalf("cut at I/O %d: live inode %d unreadable: %v", k, id, err)
				}
				got := make([]byte, core.BlockSize)
				for b := 0; b < ino2.NBlocks(); b++ {
					if ino2.BlockAddr(core.BlockNo(b)) < 0 {
						continue
					}
					if err := readOne(tk, l2, ino2, core.BlockNo(b), got); err != nil {
						t.Fatalf("cut at I/O %d: read f%d/b%d: %v", k, id, b, err)
					}
					if !bytes.Equal(got, blockOf(got[0])) || got[0] > 3 {
						t.Fatalf("cut at I/O %d: f%d/b%d holds torn garbage (lead byte %#x)", k, id, b, got[0])
					}
				}
			}
		})
	}
}
