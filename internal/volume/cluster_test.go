package volume

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/sched"
)

// TestClusteredStripedWrites drives a striped array with clustering
// on under the real kernel: the per-member shares fan out as
// concurrent tasks and coalesce into multi-block requests, and every
// byte reads back exactly.
func TestClusteredStripedWrites(t *testing.T) {
	k := sched.NewReal(1)
	defer k.Stop()
	r := newRig(t, k, nil, 3, Config{Placement: PlacementStriped, StripeBlocks: 4})
	r.arr.SetClusterRun(8)
	if got := r.arr.ClusterRun(); got != 8 {
		t.Fatalf("ClusterRun = %d after SetClusterRun(8)", got)
	}
	r.do(t, func(tk sched.Task) error {
		if err := r.arr.Format(tk); err != nil {
			return err
		}
		if err := r.arr.Mount(tk); err != nil {
			return err
		}
		const nblocks = 24 // 6 stripe chunks over 3 members
		ino, _ := writeFile(t, tk, r.arr, nblocks, core.BlockSize)
		if err := r.arr.Sync(tk); err != nil {
			return err
		}
		buf := make([]byte, core.BlockSize)
		for b := core.BlockNo(0); b < nblocks; b++ {
			if err := readOne(tk, r.arr, ino, b, buf); err != nil {
				return err
			}
			if !bytes.Equal(buf, pattern(b, core.BlockSize)) {
				t.Fatalf("block %d corrupt after clustered striped write", b)
			}
		}
		return nil
	})
}

// TestClusteredAffinityReadRun checks the affinity array forwards
// whole runs to the file's home member.
func TestClusteredAffinityReadRun(t *testing.T) {
	k := sched.NewReal(2)
	defer k.Stop()
	r := newRig(t, k, nil, 2, Config{Placement: PlacementAffinity})
	r.arr.SetClusterRun(8)
	r.do(t, func(tk sched.Task) error {
		if err := r.arr.Format(tk); err != nil {
			return err
		}
		if err := r.arr.Mount(tk); err != nil {
			return err
		}
		ino, _ := writeFile(t, tk, r.arr, 8, core.BlockSize)
		if err := r.arr.Sync(tk); err != nil {
			return err
		}
		bufs := make([][]byte, 8)
		for i := range bufs {
			bufs[i] = make([]byte, core.BlockSize)
		}
		got, err := r.arr.ReadRunVec(tk, ino, 0, 8, bufs)
		if err != nil {
			return err
		}
		if got < 2 {
			t.Fatalf("affinity ReadRun covered %d blocks; want a multi-block run", got)
		}
		for i := 0; i < got; i++ {
			if !bytes.Equal(bufs[i], pattern(core.BlockNo(i), core.BlockSize)) {
				t.Fatalf("ReadRun block %d corrupt", i)
			}
		}
		return nil
	})
}

// TestStripedWriteFanOutConcurrent hammers the concurrent write
// fan-out (run with -race): many writers into striped clustered
// files at once, then full verification.
func TestStripedWriteFanOutConcurrent(t *testing.T) {
	k := sched.NewReal(3)
	defer k.Stop()
	r := newRig(t, k, nil, 4, Config{Placement: PlacementStriped, StripeBlocks: 2})
	r.arr.SetClusterRun(8)
	r.do(t, func(tk sched.Task) error {
		if err := r.arr.Format(tk); err != nil {
			return err
		}
		return r.arr.Mount(tk)
	})
	const writers = 6
	const nblocks = 16
	inos := make([]*layout.Inode, writers)
	r.do(t, func(tk sched.Task) error {
		for i := range inos {
			ino, err := r.arr.AllocInode(tk, core.TypeRegular)
			if err != nil {
				return err
			}
			inos[i] = ino
		}
		return nil
	})
	errc := make(chan error, writers)
	for w := 0; w < writers; w++ {
		w := w
		r.k.Go("writer", func(tk sched.Task) {
			var ws []layout.BlockWrite
			for b := 0; b < nblocks; b++ {
				data := pattern(core.BlockNo(b+w*100), core.BlockSize)
				ws = append(ws, layout.BlockWrite{Blk: core.BlockNo(b), Data: data, Size: core.BlockSize})
			}
			inos[w].Size = nblocks * core.BlockSize
			errc <- r.arr.WriteBlocks(tk, inos[w], ws)
		})
	}
	for w := 0; w < writers; w++ {
		if err := <-errc; err != nil {
			t.Fatalf("writer: %v", err)
		}
	}
	r.do(t, func(tk sched.Task) error {
		buf := make([]byte, core.BlockSize)
		for w := 0; w < writers; w++ {
			for b := core.BlockNo(0); b < nblocks; b++ {
				if err := readOne(tk, r.arr, inos[w], b, buf); err != nil {
					return err
				}
				if !bytes.Equal(buf, pattern(b+core.BlockNo(w*100), core.BlockSize)) {
					t.Fatalf("writer %d block %d corrupt", w, b)
				}
			}
		}
		return nil
	})
}
