package fsys

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/layout"
	"repro/internal/lfs"
	"repro/internal/sched"
)

// The fill routine under a device read error in the middle of a run:
// whichever path claimed the frames — a demand miss, a readahead
// batch, a multimedia prefetch — the error reaches a reader, and no
// frame is left filling. The file's 12 blocks sit in three 4-block
// on-disk runs, so one clustered fill takes several device reads, and
// the FaultPlan's power cut fails exactly the one it is armed for.

const fillRuns, fillRunBlocks = 3, 4

// fillPayload is the file's content: every block carries its number.
func fillPayload() []byte {
	p := make([]byte, fillRuns*fillRunBlocks*core.BlockSize)
	for i := range p {
		p[i] = byte(i/core.BlockSize + 1)
	}
	return p
}

// runFillFault builds the rig, lays the file out cold and runs body.
func runFillFault(t *testing.T, readahead int, body func(tk sched.Task, v *Volume, h *Handle, plan *device.FaultPlan)) {
	t.Helper()
	k := sched.NewVirtual(5)
	drv := device.NewMemDriver(k, "mem0", 4096, nil)
	plan := device.NewFaultPlan(device.FaultConfig{})
	drv.SetInjector(plan)
	lay := lfs.New(k, "vol1", layout.NewPartition(drv, 0, 0, 4096, false), lfs.Config{SegBlocks: 64, MaxInodes: 1 << 12})
	lay.SetClusterRun(layout.DefaultClusterRun)
	store := NewStore()
	c := cache.New(k, cache.Config{Blocks: 64, Flush: cache.UPS()}, store)
	fs := New(k, c, core.RealMover{})
	store.Bind(fs)
	fs.SetReadahead(readahead)
	c.Start()
	payload := fillPayload()
	k.Go("test", func(tk sched.Task) {
		v, h, err := layOutRuns(tk, fs, lay, payload)
		if err != nil {
			t.Errorf("set-up: %v", err)
		} else {
			body(tk, v, h, plan)
		}
		k.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// layOutRuns writes payload run by run, with a block of another file
// logged between runs so they are not disk-adjacent, and drops the
// file from the cache.
func layOutRuns(tk sched.Task, fs *FS, lay layout.Layout, payload []byte) (*Volume, *Handle, error) {
	if err := lay.Format(tk); err != nil {
		return nil, nil, err
	}
	if err := lay.Mount(tk); err != nil {
		return nil, nil, err
	}
	v, err := fs.AddVolume(tk, 1, lay, false)
	if err != nil {
		return nil, nil, err
	}
	h, err := v.EnsureFile(tk, "/f", 0, false)
	if err != nil {
		return nil, nil, err
	}
	other, err := v.EnsureFile(tk, "/g", 0, false)
	if err != nil {
		return nil, nil, err
	}
	const run = fillRunBlocks * core.BlockSize
	for r := int64(0); r < fillRuns; r++ {
		if err := v.WriteAt(tk, h, r*run, payload[r*run:(r+1)*run], run); err != nil {
			return nil, nil, err
		}
		if err := fs.SyncAll(tk); err != nil {
			return nil, nil, err
		}
		if err := v.WriteAt(tk, other, r*core.BlockSize, payload[:core.BlockSize], core.BlockSize); err != nil {
			return nil, nil, err
		}
		if err := fs.SyncAll(tk); err != nil {
			return nil, nil, err
		}
	}
	for b := core.BlockNo(fillRunBlocks); b < fillRuns*fillRunBlocks; b += fillRunBlocks {
		if h.f.ino.BlockAddr(b) == h.f.ino.BlockAddr(b-1)+1 {
			return nil, nil, errors.New("file runs are disk-adjacent: the fill would not split")
		}
	}
	fs.cache.DiscardFile(tk, v.ID, h.ID(), 0)
	return v, h, nil
}

// checkSettled restores the power and checks that every frame of the
// file settled: DiscardFile waits out fills and holds, so a frame left
// filling (or pinned) deadlocks the kernel here. The file then reads
// back whole and right.
func checkSettled(t *testing.T, tk sched.Task, v *Volume, h *Handle, plan *device.FaultPlan) {
	plan.Restore()
	v.fs.cache.DiscardFile(tk, v.ID, h.ID(), 0)
	want := fillPayload()
	buf := make([]byte, len(want))
	if got, err := v.ReadAt(tk, h, 0, buf, int64(len(buf))); err != nil || got != int64(len(buf)) {
		t.Errorf("read after the power returned: %d bytes, %v", got, err)
	} else if !bytes.Equal(buf, want) {
		t.Error("file reads back wrong after the failed fills")
	}
}

func cached(tk sched.Task, v *Volume, h *Handle, blk core.BlockNo) bool {
	return v.fs.cache.Peek(tk, core.BlockKey{Vol: v.ID, File: h.ID(), Blk: blk})
}

// A demand miss clusters the whole read into one claim; the second
// run's device read fails. The first run's blocks are returned, and
// the error surfaces when the read reaches the failed blocks.
func TestFillFailsMidRunDemand(t *testing.T) {
	runFillFault(t, 0, func(tk sched.Task, v *Volume, h *Handle, plan *device.FaultPlan) {
		plan.ArmCut(2)
		buf := make([]byte, fillRuns*fillRunBlocks*core.BlockSize)
		got, err := v.ReadAt(tk, h, 0, buf, int64(len(buf)))
		if !errors.Is(err, device.ErrPowerCut) {
			t.Errorf("demand read: %v, want the device error", err)
		}
		if got != fillRunBlocks*core.BlockSize {
			t.Errorf("demand read returned %d bytes before the error, want the first run's %d", got, fillRunBlocks*core.BlockSize)
		}
		checkSettled(t, tk, v, h, plan)
	})
}

// A readahead batch claims blocks 4..9, two runs; the second run's
// device read fails. The batch has no caller: the next demand read of
// a failed block gets the error.
func TestFillFailsMidRunReadahead(t *testing.T) {
	runFillFault(t, 8, func(tk sched.Task, v *Volume, h *Handle, plan *device.FaultPlan) {
		buf := make([]byte, fillRunBlocks*core.BlockSize)
		if _, err := v.ReadAt(tk, h, 0, buf, int64(len(buf))); err != nil { // blocks 0-3 cached
			t.Errorf("warm-up read: %v", err)
			return
		}
		plan.ArmCut(2)
		for blk := int64(0); blk < 2; blk++ { // two sequential hits start the stream
			if _, err := v.ReadAt(tk, h, blk*core.BlockSize, buf, core.BlockSize); err != nil {
				t.Errorf("hit at block %d: %v", blk, err)
				return
			}
		}
		h.f.mu.Lock(tk)
		h.f.waitReadaheadLocked(tk)
		h.f.mu.Unlock(tk)
		if !cached(tk, v, h, 7) || cached(tk, v, h, 8) {
			t.Errorf("after the batch: block 7 cached %v (want true), block 8 cached %v (want false)",
				cached(tk, v, h, 7), cached(tk, v, h, 8))
		}
		if _, err := v.ReadAt(tk, h, 8*core.BlockSize, buf, core.BlockSize); !errors.Is(err, device.ErrPowerCut) {
			t.Errorf("demand read of a failed readahead block: %v, want the device error", err)
		}
		checkSettled(t, tk, v, h, plan)
	})
}

// A multimedia prefetch fills one block at a time; the third one's
// device read fails. The next demand read of that block gets the
// error.
func TestFillFailsMidRunPrefetch(t *testing.T) {
	runFillFault(t, 0, func(tk sched.Task, v *Volume, h *Handle, plan *device.FaultPlan) {
		plan.ArmCut(3)
		for blk := core.BlockNo(0); blk < fillRunBlocks; blk++ {
			v.prefetchBlock(tk, h.f, blk)
		}
		if !cached(tk, v, h, 1) || cached(tk, v, h, 2) {
			t.Errorf("after the prefetch: block 1 cached %v (want true), block 2 cached %v (want false)",
				cached(tk, v, h, 1), cached(tk, v, h, 2))
		}
		buf := make([]byte, core.BlockSize)
		if _, err := v.ReadAt(tk, h, 2*core.BlockSize, buf, core.BlockSize); !errors.Is(err, device.ErrPowerCut) {
			t.Errorf("demand read of a failed prefetch block: %v, want the device error", err)
		}
		checkSettled(t, tk, v, h, plan)
	})
}
