package lfs

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/layout"
	"repro/internal/sched"
)

// deviceImage reads or writes the rig's whole device in one raw
// request, so a recovery pass (which commits a fresh checkpoint) can
// be replayed from the same crashed image.
func deviceImage(tk sched.Task, t *testing.T, r *realRig, op device.Op, img []byte) {
	t.Helper()
	req := &device.Request{Op: op, Blocks: int(r.drv.CapacityBlocks()), Data: img}
	if err := r.drv.Do(tk, req); err != nil {
		t.Fatalf("device image %v: %v", op, err)
	}
}

// TestClusteredRecoveryEquivalent proves the clustered roll-forward
// recovers exactly the state the one-block-at-a-time path does: same
// workload, same torn log, two recovery incarnations (cluster off
// and on) must agree block for block.
func TestClusteredRecoveryEquivalent(t *testing.T) {
	r := newRealRig(22, 2048)
	run(t, r.k, func(tk sched.Task) {
		r.l.Format(tk)
		r.l.Mount(tk)
		ino, _ := r.l.AllocInode(tk, core.TypeRegular)
		id := ino.ID
		if err := writeFile(tk, r.l, ino, 1, 2); err != nil {
			t.Fatalf("baseline write: %v", err)
		}
		r.l.Sync(tk) // checkpoint: the inode is durable
		// Data past the checkpoint — a rewrite plus appends, flushed
		// as a partial segment; recovery must roll it forward off the
		// segment summaries.
		var ws []layout.BlockWrite
		for i := 0; i < 8; i++ {
			ws = append(ws, layout.BlockWrite{Blk: core.BlockNo(i), Data: blockOf(byte(9 - i)), Size: core.BlockSize})
		}
		ino.Size = 8 * core.BlockSize
		if err := r.l.WriteBlocks(tk, ino, ws); err != nil {
			t.Fatalf("post-cp write: %v", err)
		}
		if err := r.l.WriteBarrier(tk); err != nil {
			t.Fatalf("barrier: %v", err)
		}
		readAll := func(cluster int) ([]byte, int) {
			l := r.remount()
			l.SetClusterRun(cluster)
			st, err := l.Recover(tk)
			if err != nil {
				t.Fatalf("cluster=%d: Recover: %v", cluster, err)
			}
			ino, err := l.GetInode(tk, id)
			if err != nil {
				t.Fatalf("cluster=%d: GetInode: %v", cluster, err)
			}
			var out []byte
			buf := make([]byte, core.BlockSize)
			for b := 0; b < len(ino.Blocks); b++ {
				if err := readOne(tk, l, ino, core.BlockNo(b), buf); err != nil {
					t.Fatalf("cluster=%d: read %d: %v", cluster, b, err)
				}
				out = append(out, buf...)
			}
			return out, st.RolledSegments
		}
		// Recovery commits a fresh checkpoint, so snapshot the crashed
		// image first and restore it between the two passes.
		img := make([]byte, r.drv.CapacityBlocks()*core.BlockSize)
		deviceImage(tk, t, r, device.OpRead, img)
		off, rolledOff := readAll(1)
		deviceImage(tk, t, r, device.OpWrite, img)
		on, rolledOn := readAll(16)
		if rolledOff == 0 {
			t.Fatal("recovery rolled no segments; the test exercised nothing")
		}
		if rolledOff != rolledOn {
			t.Fatalf("rolled segments differ: %d off vs %d on", rolledOff, rolledOn)
		}
		if !bytes.Equal(off, on) {
			t.Fatal("clustered recovery produced different file contents")
		}
	})
}
