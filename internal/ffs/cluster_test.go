package ffs

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/sched"
)

func seqWrites(from, n int, b byte) []layout.BlockWrite {
	ws := make([]layout.BlockWrite, n)
	for i := range ws {
		ws[i] = layout.BlockWrite{Blk: core.BlockNo(from + i), Data: blockOf(b + byte(i)), Size: core.BlockSize}
	}
	return ws
}

// TestAllocHintTail is the allocation-hint bugfix pinned on its own:
// a file that grows after another file has been allocated behind it
// must keep appending adjacent to its own tail, not re-scan from its
// first block (the old Blocks[0] hint first-fits the group head and
// scatters growing files).
func TestAllocHintTail(t *testing.T) {
	r := newRig(11, 2048)
	run(t, r.k, func(tk sched.Task) {
		r.f.Format(tk)
		r.f.Mount(tk)
		a, _ := r.f.AllocInode(tk, core.TypeRegular)
		b, _ := r.f.AllocInode(tk, core.TypeRegular)
		if err := r.f.WriteBlocks(tk, a, seqWrites(0, 4, 1)); err != nil {
			t.Fatalf("write a: %v", err)
		}
		// b's blocks land right after a's; a's tail is now "walled in"
		// from the front, but its forward neighborhood is free.
		if err := r.f.WriteBlocks(tk, b, seqWrites(0, 4, 0x40)); err != nil {
			t.Fatalf("write b: %v", err)
		}
		if err := r.f.WriteBlocks(tk, a, seqWrites(4, 4, 5)); err != nil {
			t.Fatalf("append a: %v", err)
		}
		tail := a.BlockAddr(3)
		bEnd := b.BlockAddr(3)
		for i := 4; i < 8; i++ {
			got := a.BlockAddr(core.BlockNo(i))
			if got <= tail {
				t.Fatalf("append block %d allocated at %d, before the file tail %d", i, got, tail)
			}
			if got <= bEnd {
				t.Fatalf("append block %d allocated at %d, inside/behind file b (ends %d)", i, got, bEnd)
			}
		}
		// And the appended run itself is contiguous: the allocator
		// reserved a forward run, not four scattered first-fits.
		for i := 5; i < 8; i++ {
			if a.BlockAddr(core.BlockNo(i)) != a.BlockAddr(core.BlockNo(i-1))+1 {
				t.Fatalf("append run not contiguous: blocks %v", a.Blocks)
			}
		}
	})
}

// TestClusteredWriteRequests proves the write path coalesces: the
// same 8-block append (direct blocks only, so no indirect-map
// writes muddy the count) costs 8 data requests classic and
// ceil(8/cap) clustered, with identical bytes on disk.
func TestClusteredWriteRequests(t *testing.T) {
	for _, cluster := range []int{1, 4} {
		r := newRig(12, 2048)
		r.f.SetClusterRun(cluster)
		run(t, r.k, func(tk sched.Task) {
			r.f.Format(tk)
			r.f.Mount(tk)
			ino, _ := r.f.AllocInode(tk, core.TypeRegular)
			ino.Size = 8 * core.BlockSize
			before := r.drv.DriverStats().Writes.Value()
			if err := r.f.WriteBlocks(tk, ino, seqWrites(0, 8, 1)); err != nil {
				t.Fatalf("WriteBlocks: %v", err)
			}
			// Data requests = total write requests minus the one inode
			// table write at the end.
			reqs := r.drv.DriverStats().Writes.Value() - before - 1
			want := int64(8)
			if cluster > 1 {
				want = 2 // 8 blocks / cap 4
			}
			if reqs != want {
				t.Fatalf("cluster=%d: %d data write requests, want %d", cluster, reqs, want)
			}
			for i := 0; i < 8; i++ {
				got := make([]byte, core.BlockSize)
				if err := readOne(tk, r.f, ino, core.BlockNo(i), got); err != nil {
					t.Fatalf("read %d: %v", i, err)
				}
				if !bytes.Equal(got, blockOf(1+byte(i))) {
					t.Fatalf("cluster=%d: block %d corrupt after clustered write", cluster, i)
				}
			}
		})
	}
}
