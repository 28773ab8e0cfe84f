package fsys

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/layout"
	"repro/internal/sched"
)

// writeGate holds the first device write that arrives once it is
// armed, until release is closed: the LFS issuing it then sits in its
// segment write with its layout lock held.
type writeGate struct {
	armed   atomic.Bool
	held    chan struct{}
	release chan struct{}
}

func (g *writeGate) Intercept(r *device.Request) device.Decision {
	if r.Op == device.OpWrite && g.armed.CompareAndSwap(true, false) {
		close(g.held)
		<-g.release
	}
	return device.Decision{}
}

// TestAttributesDoNotWaitForSegmentWrite holds an LFS member's segment
// write on the real kernel. While it is held, StatHandle and StatByID
// return, and a size-growing WriteAt on another file publishes its new
// size: attributes are read and sizes published under the inode's leaf
// lock, not the layout's lock. The WriteAt itself returns once the
// write is released, because its UpdateInode marks the inode dirty
// under the layout's lock.
func TestAttributesDoNotWaitForSegmentWrite(t *testing.T) {
	g := &writeGate{held: make(chan struct{}), release: make(chan struct{})}
	block := bytes.Repeat([]byte{0x6B}, core.BlockSize)
	onRealFileVia(t, g, block, func(tk sched.Task, v *Volume, h *Handle) {
		k := v.fs.k
		other, err := v.EnsureFile(tk, "/g", 0, false)
		if err != nil {
			t.Errorf("EnsureFile: %v", err)
			return
		}
		defer v.Close(tk, other)
		if err := v.WriteAt(tk, other, 0, block, core.BlockSize); err != nil {
			t.Errorf("WriteAt: %v", err)
			return
		}
		if err := v.fs.SyncAll(tk); err != nil {
			t.Errorf("SyncAll: %v", err)
			return
		}
		released := false
		release := func() {
			if !released {
				released = true
				close(g.release)
			}
		}
		defer release()

		g.armed.Store(true)
		flushed := make(chan error, 1)
		k.Go("segment-write", func(st sched.Task) {
			flushed <- v.arr.WriteBlocks(st, h.f.ino, []layout.BlockWrite{{Blk: 0, Data: block, Size: core.BlockSize}})
		})
		select {
		case <-g.held:
		case <-time.After(10 * time.Second):
			t.Error("the segment write never reached the driver")
			return
		}

		// Each check runs on a task of its own, so a check stuck on the
		// layout's lock shows as a timeout instead of a hang.
		within := func(what string, fn func(st sched.Task)) {
			done := make(chan struct{})
			k.Go(what, func(st sched.Task) {
				defer close(done)
				fn(st)
			})
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Errorf("%s waited behind the held segment write", what)
			}
		}
		within("StatHandle", func(st sched.Task) {
			if a := v.StatHandle(st, h); a.Size != core.BlockSize {
				t.Errorf("StatHandle size %d, want %d", a.Size, core.BlockSize)
			}
		})
		within("StatByID", func(st sched.Task) {
			if _, err := v.StatByID(st, other.ID()); err != nil {
				t.Errorf("StatByID: %v", err)
			}
		})
		wrote := make(chan error, 1)
		k.Go("grow", func(st sched.Task) {
			wrote <- v.WriteAt(st, other, core.BlockSize, block, core.BlockSize)
		})
		within("the size-growing WriteAt's size", func(st sched.Task) {
			for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
				a, err := v.StatByID(st, other.ID())
				if err != nil {
					t.Errorf("StatByID: %v", err)
					return
				}
				if a.Size == 2*core.BlockSize {
					return
				}
			}
			t.Error("the size-growing WriteAt did not publish its size while the segment write was held")
		})

		release()
		for what, errc := range map[string]chan error{"WriteBlocks": flushed, "WriteAt": wrote} {
			select {
			case err := <-errc:
				if err != nil {
					t.Errorf("%s: %v", what, err)
				}
			case <-time.After(10 * time.Second):
				t.Errorf("%s did not return after the segment write was released", what)
			}
		}
	})
}
