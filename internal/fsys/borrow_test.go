package fsys

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/layout"
	"repro/internal/lfs"
	"repro/internal/sched"
)

// TestBorrowReadsNeverWaitOnHolds runs three borrowed readers against
// one 8-frame shard. Each keeps its loans while its reply would be on
// the wire, so between them they can hold every frame: a read that
// already holds frames must come back short instead of waiting for the
// others' loans (or panicking), it must still return at least a block,
// and every lent byte must be right.
func TestBorrowReadsNeverWaitOnHolds(t *testing.T) {
	const (
		fileBlocks = 24
		reqBlocks  = 5
		readers    = 3
		passes     = 4
	)
	k := sched.NewVirtual(11)
	drv := device.NewMemDriver(k, "mem0", 4096, nil)
	part := layout.NewPartition(drv, 0, 0, 4096, false)
	lay := lfs.New(k, "vol1", part, lfs.Config{SegBlocks: 16, MaxInodes: 1 << 12})
	store := NewStore()
	c := cache.New(k, cache.Config{Blocks: 8, Flush: cache.UPS()}, store)
	fs := New(k, c, core.RealMover{})
	store.Bind(fs)
	c.Start()
	payload := make([]byte, fileBlocks*core.BlockSize)
	for i := range payload {
		payload[i] = byte(i/7 + i/core.BlockSize)
	}
	size := int64(len(payload))
	short := 0

	// read streams the file passes times from start, wrapping at EOF.
	read := func(rt sched.Task, v *Volume, h *Handle, start int64) {
		for pos := start; pos < start+passes*size; {
			off := pos % size
			want := min(reqBlocks*core.BlockSize, size-off)
			segs, got, release, ok, err := v.ReadBorrowAt(rt, h, off, want)
			if err != nil || !ok {
				t.Errorf("ReadBorrowAt at %d: ok=%v err=%v", off, ok, err)
				return
			}
			if got < core.BlockSize {
				t.Errorf("ReadBorrowAt at %d returned %d bytes, want at least a block", off, got)
				release(rt)
				return
			}
			if got < want {
				short++
			}
			at := off
			for _, s := range segs {
				if !bytes.Equal(s, payload[at:at+int64(len(s))]) {
					t.Errorf("bytes at %d came back wrong", at)
				}
				at += int64(len(s))
			}
			if at != off+got {
				t.Errorf("segments cover %d bytes, got says %d", at-off, got)
			}
			rt.Sleep(time.Millisecond) // the reply's write: loans held, others run
			release(rt)
			pos += got // the next request starts where this one stopped, short or not
		}
	}

	k.Go("test", func(tk sched.Task) {
		defer k.Stop()
		if err := lay.Format(tk); err != nil {
			t.Errorf("Format: %v", err)
			return
		}
		if err := lay.Mount(tk); err != nil {
			t.Errorf("Mount: %v", err)
			return
		}
		v, err := fs.AddVolume(tk, 1, lay, false)
		if err != nil {
			t.Errorf("AddVolume: %v", err)
			return
		}
		h, err := v.EnsureFile(tk, "/f", 0, false)
		if err != nil {
			t.Errorf("EnsureFile: %v", err)
			return
		}
		if err := v.WriteAt(tk, h, 0, payload, size); err != nil {
			t.Errorf("WriteAt: %v", err)
			return
		}
		if err := fs.SyncAll(tk); err != nil {
			t.Errorf("SyncAll: %v", err)
			return
		}
		done := k.NewEvent("readers")
		for r := 0; r < readers; r++ {
			// Readers start a third of the file apart, so their loans
			// cover different blocks.
			start := int64(r) * size / readers
			k.Go("reader", func(rt sched.Task) {
				read(rt, v, h, start)
				done.Signal()
			})
		}
		for r := 0; r < readers; r++ {
			done.Wait(tk)
		}
		v.Close(tk, h)
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if short == 0 {
		t.Fatal("no read came back short: the readers never held the whole shard")
	}
}
