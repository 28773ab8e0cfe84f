package lfs

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/layout"
	"repro/internal/sched"
)

// one builds a one-block write.
func one(blk int, b byte) []layout.BlockWrite {
	return []layout.BlockWrite{{Blk: core.BlockNo(blk), Data: blockOf(b), Size: core.BlockSize}}
}

// expectBlocks reads file id's first len(want) blocks and compares
// their lead bytes (every test block is one byte repeated).
func expectBlocks(t *testing.T, tk sched.Task, l *LFS, id core.FileID, want []byte, when string) {
	t.Helper()
	ino, err := l.GetInode(tk, id)
	if err != nil {
		t.Fatalf("%s: GetInode(%d): %v", when, id, err)
	}
	got := make([]byte, core.BlockSize)
	for b, w := range want {
		if err := readOne(tk, l, ino, core.BlockNo(b), got); err != nil {
			t.Fatalf("%s: read f%d/b%d: %v", when, id, b, err)
		}
		if !bytes.Equal(got, blockOf(w)) {
			t.Fatalf("%s: f%d/b%d leads with %#x, want %#x", when, id, b, got[0], w)
		}
	}
}

// TestBarrierCommitsInPlace is the segment budget of the UPS flush
// pattern: N one-block flush jobs, each followed by a barrier, cost
// three log blocks apiece (data, indirect, inode) and must fill
// segments, not burn one each — and what each barrier acknowledged
// must come back by roll-forward alone, with no checkpoint after it.
func TestBarrierCommitsInPlace(t *testing.T) {
	const n, fileBlocks = 300, 20
	k := sched.NewVirtual(31)
	drv := device.NewMemDriver(k, "mem0", 8192, nil)
	l := New(k, "vol0", layout.NewPartition(drv, 0, 0, 8192, false), Config{MaxInodes: 1 << 12})
	run(t, k, func(tk sched.Task) {
		l.Format(tk)
		l.Mount(tk)
		ino, _ := l.AllocInode(tk, core.TypeRegular)
		want := make([]byte, fileBlocks)
		for i := range want {
			want[i] = byte(i)
		}
		if err := writeFile(tk, l, ino, want...); err != nil {
			t.Fatalf("prefill: %v", err)
		}
		if err := l.Sync(tk); err != nil {
			t.Fatalf("Sync: %v", err)
		}
		seq0 := l.DurableSeq(tk)
		segs0, blocks0 := l.segsWritten.Value(), l.blocksOut.Value()
		for i := 0; i < n; i++ {
			blk := (i * 7) % fileBlocks
			want[blk] = byte(0x80 + i%0x70)
			if err := l.WriteBlocks(tk, ino, one(blk, want[blk])); err != nil {
				t.Fatalf("job %d: %v", i, err)
			}
			if err := l.WriteBarrier(tk); err != nil {
				t.Fatalf("barrier %d: %v", i, err)
			}
		}
		if got := l.blocksOut.Value() - blocks0; got != 3*n {
			t.Fatalf("%d jobs wrote %d log blocks, want %d (data + indirect + inode each)", n, got, 3*n)
		}
		slots := int64(l.dataSlots)
		if got, limit := l.segsWritten.Value()-segs0, (3*n+slots-1)/slots+1; got > limit {
			t.Fatalf("%d barriers retired %d segments, want <= %d", n, got, limit)
		}
		if l.segsCleaned.Value() != 0 {
			t.Fatalf("cleaner ran (%d segments) on a volume a tenth full", l.segsCleaned.Value())
		}
		if seq := l.DurableSeq(tk); seq < seq0 {
			t.Fatalf("durability watermark regressed: %d -> %d", seq0, seq)
		}
		// A barrier with nothing new is free.
		ios := drv.DriverStats().Writes.Value()
		if err := l.WriteBarrier(tk); err != nil {
			t.Fatalf("idle barrier: %v", err)
		}
		if got := drv.DriverStats().Writes.Value() - ios; got != 0 {
			t.Fatalf("idle barrier issued %d writes", got)
		}
		expectBlocks(t, tk, l, ino.ID, want, "before crash")

		// Crash with the last segment open: it was committed, never closed.
		l2 := New(k, "vol0", layout.NewPartition(drv, 0, 0, 8192, false), Config{})
		st, err := l2.Recover(tk)
		if err != nil {
			t.Fatalf("Recover: %v", err)
		}
		if st.TornTail || st.OrphanBlocks != 0 {
			t.Fatalf("clean barriers recovered as %+v", st)
		}
		mustClean(t, tk, l2, "after recovery")
		expectBlocks(t, tk, l2, ino.ID, want, "after recovery")
	})
}

// TestPowerCutSweepInsideCommittedSegment cuts the power at every I/O
// of 40 flush-job + barrier pairs that all land in one open segment —
// so every summary write but the first rewrites a block that already
// holds acknowledged entries — tearing multi-block writes at a block
// boundary and, in the second pass, one-block writes (the summary) at
// a byte boundary. After recovery every block reads what its last
// acknowledged barrier made durable (the one job in flight at the cut
// may or may not have made it) and fsck is clean.
func TestPowerCutSweepInsideCommittedSegment(t *testing.T) {
	const jobs, fileBlocks = 40, 16
	rig := func() (*sched.VKernel, device.Driver, *LFS) {
		k := sched.NewVirtual(32)
		drv := device.NewMemDriver(k, "mem0", 4096, nil)
		l := New(k, "vol0", layout.NewPartition(drv, 0, 0, 4096, false), Config{MaxInodes: 1 << 12})
		return k, drv, l
	}
	// script runs the jobs until the first error. acked holds what the
	// completed barriers acknowledged; inflight is the one write whose
	// barrier did not complete (-1: none).
	type outcome struct {
		id       core.FileID
		acked    []byte
		inflight int
		tried    byte
	}
	script := func(tk sched.Task, l *LFS, drv device.Driver, plan *device.FaultPlan) outcome {
		l.Format(tk)
		l.Mount(tk)
		ino, _ := l.AllocInode(tk, core.TypeRegular)
		o := outcome{id: ino.ID, acked: make([]byte, fileBlocks), inflight: -1}
		for i := range o.acked {
			o.acked[i] = byte(i)
		}
		writeFile(tk, l, ino, o.acked...)
		l.Sync(tk)
		segs := l.segsWritten.Value()
		drv.SetInjector(plan) // the checkpointed base is not under test
		for i := 0; i < jobs; i++ {
			blk, val := (i*5)%fileBlocks, byte(0x40+i)
			o.inflight, o.tried = blk, val
			if l.WriteBlocks(tk, ino, one(blk, val)) != nil || l.WriteBarrier(tk) != nil {
				return o
			}
			o.acked[blk], o.inflight = val, -1
		}
		if l.segsWritten.Value() != segs {
			t.Fatalf("the %d jobs spilled out of one segment; the sweep must stay inside it", jobs)
		}
		return o
	}

	var total int64
	{
		k, drv, l := rig()
		plan := device.NewFaultPlan(device.FaultConfig{})
		run(t, k, func(tk sched.Task) { script(tk, l, drv, plan) })
		total = plan.IOs()
	}
	if total != 3*jobs {
		t.Fatalf("dry run did %d I/Os, want %d (data, metadata, summary per job)", total, 3*jobs)
	}

	for _, subBlock := range []bool{false, true} {
		for cut := int64(1); cut <= total; cut++ {
			k, drv, l := rig()
			plan := device.NewFaultPlan(device.FaultConfig{
				Seed: cut, CutAfterIO: cut, CutTearsWrite: true, CutTearsSubBlock: subBlock,
			})
			run(t, k, func(tk sched.Task) {
				o := script(tk, l, drv, plan)
				drv.SetInjector(nil)
				l2 := New(k, "vol0", layout.NewPartition(drv, 0, 0, 4096, false), Config{})
				if _, err := l2.Recover(tk); err != nil {
					t.Fatalf("cut at I/O %d (sub-block %v): Recover: %v", cut, subBlock, err)
				}
				if errs := l2.Check(tk); len(errs) != 0 {
					t.Fatalf("cut at I/O %d (sub-block %v): fsck dirty: %v", cut, subBlock, errs)
				}
				ino, err := l2.GetInode(tk, o.id)
				if err != nil {
					t.Fatalf("cut at I/O %d (sub-block %v): file lost: %v", cut, subBlock, err)
				}
				got := make([]byte, core.BlockSize)
				for b, want := range o.acked {
					if err := readOne(tk, l2, ino, core.BlockNo(b), got); err != nil {
						t.Fatalf("cut at I/O %d (sub-block %v): read b%d: %v", cut, subBlock, b, err)
					}
					if bytes.Equal(got, blockOf(want)) || (b == o.inflight && bytes.Equal(got, blockOf(o.tried))) {
						continue
					}
					t.Fatalf("cut at I/O %d (sub-block %v): b%d leads with %#x, acknowledged %#x",
						cut, subBlock, b, got[0], want)
				}
			})
		}
	}
}

// TestPreBarrierImageStillMounts loads an image written by the code
// before segments filled from both ends — testdata/prebarrier.img.gz,
// a crashed 1024-block volume of 16-block segments: files 2 (20
// blocks 0x10+i), 3 (0xB0..0xB2) checkpointed, then five one-block
// overwrites of file 2 (0xA0+i) and a new file 4 (0xC0, 0xC1), each
// hardened by a barrier that closed its own partial segment. Every
// summary there is front-only (count word's high half zero, inode
// and indirect entries among the data). It must roll forward, and
// the cleaner must reclaim those segments.
func TestPreBarrierImageStillMounts(t *testing.T) {
	f, err := os.Open("testdata/prebarrier.img.gz")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	img, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	r := newRealRig(41, int64(len(img)/core.BlockSize))
	run(t, r.k, func(tk sched.Task) {
		deviceImage(tk, t, r, device.OpWrite, img)
		l := r.remount()
		st, err := l.Recover(tk)
		if err != nil {
			t.Fatalf("Recover: %v", err)
		}
		// File 4's two data entries precede its first inode record, so
		// they replay as orphans and the record then brings them in.
		if st.RolledSegments != 6 || st.DataBlocks != 5 || st.InodeRecords != 6 || st.TornTail {
			t.Fatalf("roll-forward of the old log: %+v", st)
		}
		mustClean(t, tk, l, "after recovery")
		fileA := make([]byte, 20)
		for i := range fileA {
			fileA[i] = byte(0x10 + i)
			if i < 5 {
				fileA[i] = byte(0xA0 + i)
			}
		}
		check := func(when string) {
			expectBlocks(t, tk, l, 2, fileA, when)
			expectBlocks(t, tk, l, 3, []byte{0xB0, 0xB1, 0xB2}, when)
			expectBlocks(t, tk, l, 4, []byte{0xC0, 0xC1}, when)
		}
		check("after recovery")

		// A plain remount reads the same volume (no roll-forward left).
		l = r.remount()
		if err := l.Mount(tk); err != nil {
			t.Fatalf("Mount: %v", err)
		}
		check("after remount")
		// Clean every segment the old code wrote.
		l.mu.Lock(tk)
		old := 0
		for seg := 0; seg < l.nsegs && err == nil; seg++ {
			if l.sut[seg].state != segInUse {
				continue
			}
			sum, serr := l.readSummary(tk, seg)
			if serr != nil {
				t.Fatalf("segment %d: %v", seg, serr)
			}
			if sum.back == 0 && len(sum.entries) == sum.front {
				old++
				err = l.cleanSegment(tk, seg)
			}
		}
		if err == nil {
			err = l.writeCurSegment(tk, true)
		}
		if err == nil {
			err = l.checkpointLocked(tk)
		}
		l.mu.Unlock(tk)
		if err != nil {
			t.Fatalf("clean: %v", err)
		}
		if old < 6 {
			t.Fatalf("found only %d front-only segments in the old image", old)
		}
		mustClean(t, tk, l, "after cleaning")
		check("after cleaning")
		l = r.remount()
		if err := l.Mount(tk); err != nil {
			t.Fatalf("Mount: %v", err)
		}
		mustClean(t, tk, l, "after cleaning and remount")
		check("after cleaning and remount")
	})
}

// TestCleanerReadsTwoEndedSummaryFromDisk: real partitions keep no
// in-memory copy of a retired segment's summary, so after a remount
// the cleaner has only block 0 of the victim to go by — front entries,
// a gap, back entries.
func TestCleanerReadsTwoEndedSummaryFromDisk(t *testing.T) {
	r := newRealRig(42, 1024)
	run(t, r.k, func(tk sched.Task) {
		r.l.Format(tk)
		r.l.Mount(tk)
		big, _ := r.l.AllocInode(tk, core.TypeRegular)
		want := make([]byte, 14)
		for i := range want {
			want[i] = byte(0x20 + i)
		}
		writeFile(tk, r.l, big, want...)
		small, _ := r.l.AllocInode(tk, core.TypeRegular)
		writeFile(tk, r.l, small, 0x51, 0x52)
		idle, _ := r.l.AllocInode(tk, core.TypeRegular)
		writeFile(tk, r.l, idle, 0x99)
		r.l.Sync(tk)
		// Two barriers into one segment: data in front, an indirect and
		// two inode blocks at the back, empty slots between.
		r.l.WriteBlocks(tk, big, one(13, 0x7D))
		want[13] = 0x7D
		if err := r.l.WriteBarrier(tk); err != nil {
			t.Fatalf("barrier: %v", err)
		}
		victim := r.l.cur.seg
		// idle's record moves into the victim with none of its data:
		// only the inode block's own entry tells the cleaner it is there.
		r.l.UpdateInode(tk, idle)
		r.l.WriteBlocks(tk, small, one(0, 0x5A))
		if err := r.l.WriteBarrier(tk); err != nil {
			t.Fatalf("barrier: %v", err)
		}
		if r.l.cur == nil || r.l.cur.seg != victim || r.l.cur.back < 3 || r.l.cur.filled() >= r.l.dataSlots {
			t.Fatalf("setup: want one open two-ended segment with a gap, have %+v", r.l.cur)
		}
		if err := r.l.Sync(tk); err != nil {
			t.Fatalf("Sync: %v", err)
		}
		if len(r.l.summaries) != 0 {
			t.Fatalf("real partition mirrors %d summaries in memory", len(r.l.summaries))
		}

		l := r.remount()
		if err := l.Mount(tk); err != nil {
			t.Fatalf("Mount: %v", err)
		}
		l.mu.Lock(tk)
		sum, err := l.readSummary(tk, victim)
		if err != nil || sum.front < 2 || sum.back < 3 || len(sum.entries) != l.dataSlots {
			t.Fatalf("victim summary: %+v, %v", sum, err)
		}
		err = l.cleanSegment(tk, victim)
		if err == nil {
			err = l.writeCurSegment(tk, true)
		}
		if err == nil {
			err = l.checkpointLocked(tk)
		}
		l.mu.Unlock(tk)
		if err != nil {
			t.Fatalf("clean: %v", err)
		}
		if l.sut[victim].state != segFree {
			t.Fatalf("victim %d not reclaimed: state %d", victim, l.sut[victim].state)
		}
		if l.liveCopied.Value() != 2 {
			t.Fatalf("cleaner copied %d live data blocks, want 2", l.liveCopied.Value())
		}
		mustClean(t, tk, l, "after cleaning")
		expectBlocks(t, tk, l, big.ID, want, "after cleaning")
		expectBlocks(t, tk, l, small.ID, []byte{0x5A, 0x52}, "after cleaning")
		expectBlocks(t, tk, l, idle.ID, []byte{0x99}, "after cleaning")

		// And the moved blocks survive another restart.
		l = r.remount()
		if err := l.Mount(tk); err != nil {
			t.Fatalf("Mount: %v", err)
		}
		mustClean(t, tk, l, "after second remount")
		expectBlocks(t, tk, l, big.ID, want, "after second remount")
		expectBlocks(t, tk, l, small.ID, []byte{0x5A, 0x52}, "after second remount")
		expectBlocks(t, tk, l, idle.ID, []byte{0x99}, "after second remount")
	})
}
