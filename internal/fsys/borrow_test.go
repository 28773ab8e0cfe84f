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
	lay := arrayOf(t, k, lfs.New(k, "vol1", part, lfs.Config{SegBlocks: 16, MaxInodes: 1 << 12}), part)
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
		var l Loan // one loan per reader, reused read after read
		for pos := start; pos < start+passes*size; {
			off := pos % size
			want := min(reqBlocks*core.BlockSize, size-off)
			got, ok, err := v.ReadBorrowAt(rt, h, off, want, &l)
			if err != nil || !ok {
				t.Errorf("ReadBorrowAt at %d: ok=%v err=%v", off, ok, err)
				return
			}
			if got < core.BlockSize {
				t.Errorf("ReadBorrowAt at %d returned %d bytes, want at least a block", off, got)
				l.Release(rt)
				return
			}
			if got < want {
				short++
			}
			at := off
			for _, s := range l.Segs {
				if !bytes.Equal(s, payload[at:at+int64(len(s))]) {
					t.Errorf("bytes at %d came back wrong", at)
				}
				at += int64(len(s))
			}
			if at != off+got {
				t.Errorf("segments cover %d bytes, got says %d", at-off, got)
			}
			rt.Sleep(time.Millisecond) // the reply's write: loans held, others run
			l.Release(rt)
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
		v, err := fs.AddVolume(tk, 1, lay)
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

// TestReusedLoanAllocatesNothing is the fsys allocation gate of the
// zero-copy read: a cache-hit ReadBorrowAt through a reused Loan, and
// its Release, allocate nothing (the real kernel, as the server runs).
func TestReusedLoanAllocatesNothing(t *testing.T) {
	k := sched.NewReal(1)
	drv := device.NewMemDriver(k, "mem0", 4096, nil)
	part := layout.NewPartition(drv, 0, 0, 4096, false)
	lay := arrayOf(t, k, lfs.New(k, "vol1", part, lfs.Config{SegBlocks: 16, MaxInodes: 1 << 12}), part)
	store := NewStore()
	c := cache.New(k, cache.Config{Blocks: 64, Flush: cache.UPS()}, store)
	fs := New(k, c, core.RealMover{})
	store.Bind(fs)
	c.Start()
	payload := bytes.Repeat([]byte{0x3C}, 2*core.BlockSize)
	done := make(chan struct{})
	k.Go("test", func(tk sched.Task) {
		defer close(done)
		defer c.Close(tk)
		if err := lay.Format(tk); err != nil {
			t.Errorf("Format: %v", err)
			return
		}
		if err := lay.Mount(tk); err != nil {
			t.Errorf("Mount: %v", err)
			return
		}
		v, err := fs.AddVolume(tk, 1, lay)
		if err != nil {
			t.Errorf("AddVolume: %v", err)
			return
		}
		h, err := v.EnsureFile(tk, "/f", 0, false)
		if err != nil {
			t.Errorf("EnsureFile: %v", err)
			return
		}
		defer v.Close(tk, h)
		if err := v.WriteAt(tk, h, 0, payload, int64(len(payload))); err != nil {
			t.Errorf("WriteAt: %v", err)
			return
		}
		var l Loan
		read := func() {
			got, ok, err := v.ReadBorrowAt(tk, h, 0, int64(len(payload)), &l)
			if err != nil || !ok || got != int64(len(payload)) || len(l.Segs) != 2 {
				t.Errorf("ReadBorrowAt: got %d ok=%v err=%v segs=%d", got, ok, err, len(l.Segs))
			}
			l.Release(tk)
		}
		read() // the loan's lists grow once
		if n := testing.AllocsPerRun(100, read); n != 0 {
			t.Errorf("cache-hit borrowed read through a reused loan: %.1f allocs, want 0", n)
		}
		if len(l.Segs) != 0 || len(l.frames) != 0 {
			t.Errorf("released loan still holds %d segments, %d frames", len(l.Segs), len(l.frames))
		}
	})
	<-done
}
