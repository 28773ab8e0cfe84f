package volume

import (
	"testing"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/sched"
)

// runReader is a layout or an array: what readOne reads through.
type runReader interface {
	ReadRunVec(t sched.Task, ino *layout.Inode, blk core.BlockNo, n int, bufs [][]byte) (int, error)
}

// readOne reads file block blk into buf (nil when simulated) with a
// one-block ReadRunVec.
func readOne(t sched.Task, lay runReader, ino *layout.Inode, blk core.BlockNo, buf []byte) error {
	var vec [][]byte
	if buf != nil {
		vec = [][]byte{buf}
	}
	_, err := lay.ReadRunVec(t, ino, blk, 1, vec)
	return err
}

// TestRMWReadAddsNoAllocation gates the parity read-modify-write's
// cell read on a 3-wide parity array: batch.read reads through the
// column's one-segment vector, so it allocates exactly what the
// member's own one-block ReadRunVec does.
func TestRMWReadAddsNoAllocation(t *testing.T) {
	k := sched.NewReal(1)
	r := newRig(t, k, nil, 3, Config{Placement: PlacementParity, StripeBlocks: 4})
	r.do(t, func(tk sched.Task) error {
		if err := r.arr.Format(tk); err != nil {
			return err
		}
		if err := r.arr.Mount(tk); err != nil {
			return err
		}
		if _, err := r.arr.AllocInode(tk, core.TypeDirectory); err != nil {
			return err
		}
		ino, _ := writeFile(t, tk, r.arr, 8, core.BlockSize)
		af := r.arr.lookup(tk, ino.ID)
		c := r.arr.pl.dataCell(af.home, 5)
		b := batch{t: tk, a: r.arr, af: af, dead: -1}
		vec := blockVec()
		var err error
		member := testing.AllocsPerRun(100, func() {
			_, err = r.arr.sub(c.member).ReadRunVec(tk, af.shadows[c.member], c.local, 1, vec)
		})
		if err != nil {
			return err
		}
		rmw := testing.AllocsPerRun(100, func() { err = b.read(c, vec) })
		if err != nil {
			return err
		}
		if rmw != member {
			t.Errorf("batch.read allocates %v per call, the member's one-block read %v", rmw, member)
		}
		return nil
	})
}
