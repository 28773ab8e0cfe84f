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

// onRealFile runs body as a real-kernel task over a mounted one-member
// LFS volume holding file /f, written with payload and open as h.
func onRealFile(t *testing.T, payload []byte, body func(tk sched.Task, v *Volume, h *Handle)) {
	t.Helper()
	onRealFileVia(t, nil, payload, body)
}

// onRealFileVia is onRealFile with ij intercepting the member's device
// requests.
func onRealFileVia(t *testing.T, ij device.Interceptor, payload []byte, body func(tk sched.Task, v *Volume, h *Handle)) {
	t.Helper()
	k := sched.NewReal(1)
	drv := device.NewMemDriver(k, "mem0", 4096, nil)
	drv.SetInjector(ij)
	part := layout.NewPartition(drv, 0, 0, 4096, false)
	lay := arrayOf(t, k, lfs.New(k, "vol1", part, lfs.Config{SegBlocks: 16, MaxInodes: 1 << 12}), part)
	store := NewStore()
	c := cache.New(k, cache.Config{Blocks: 64, Flush: cache.UPS()}, store)
	fs := New(k, c, core.RealMover{})
	store.Bind(fs)
	c.Start()
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
		body(tk, v, h)
	})
	<-done
	k.Stop()
}

// TestReusedLoanAllocatesNothing is the fsys allocation gate of the
// zero-copy read: a cache-hit ReadBorrowAt through a reused Loan, and
// its Release, allocate nothing (the real kernel, as the server runs).
func TestReusedLoanAllocatesNothing(t *testing.T) {
	payload := bytes.Repeat([]byte{0x3C}, 2*core.BlockSize)
	onRealFile(t, payload, func(tk sched.Task, v *Volume, h *Handle) {
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
}

// TestStatAllocatesNothing gates attrIno on the real kernel, where the
// snapshot runs under the inode's leaf lock: a stat allocates nothing.
func TestStatAllocatesNothing(t *testing.T) {
	payload := bytes.Repeat([]byte{0x5A}, core.BlockSize)
	onRealFile(t, payload, func(tk sched.Task, v *Volume, h *Handle) {
		var a FileAttr
		if n := testing.AllocsPerRun(100, func() { a = v.StatHandle(tk, h) }); n != 0 {
			t.Errorf("StatHandle: %v allocs, want 0", n)
		}
		if a.Size != int64(len(payload)) || a.Type != core.TypeRegular {
			t.Errorf("StatHandle: %+v", a)
		}
	})
}

// TestReadaheadStreamAllocatesNothing gates the stream path on the real
// kernel: sequential one-block reads of a file twice the cache's size,
// readahead 8, so every read issues a readahead batch task and blocks
// arrive by miss or readahead fill. Each read waits for its batch (a
// back-to-back reader would hold the file lock the batch ends under),
// so the batch is measured with it. Once the task goroutines and the
// batches are warm, a read allocates nothing, its batch included.
func TestReadaheadStreamAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops lent readahead batches")
	}
	const fileBlocks = 128 // the cache holds 64
	payload := bytes.Repeat([]byte{0x4D}, fileBlocks*core.BlockSize)
	onRealFile(t, payload, func(tk sched.Task, v *Volume, h *Handle) {
		v.fs.SetReadahead(8)
		buf := make([]byte, core.BlockSize)
		var err error
		i := 0
		read := func() {
			if err == nil {
				_, err = v.ReadAt(tk, h, int64(i%fileBlocks)*core.BlockSize, buf, core.BlockSize)
			}
			h.f.mu.Lock(tk)
			h.f.waitReadaheadLocked(tk)
			h.f.mu.Unlock(tk)
			i++
		}
		for range 2 * fileBlocks {
			read()
		}
		batches := v.fs.FSStats().Readaheads.Value()
		fills := v.fs.cache.CacheStats().ReadaheadFills.Value()
		n := testing.AllocsPerRun(4*fileBlocks, read)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if n != 0 {
			t.Errorf("sequential ReadAt with readahead: %v allocs per read, want 0", n)
		}
		if got := v.fs.FSStats().Readaheads.Value() - batches; got < 3*fileBlocks {
			t.Errorf("%d readahead batches over %d reads: the gate missed the batch tasks", got, 4*fileBlocks)
		}
		if got := v.fs.cache.CacheStats().ReadaheadFills.Value() - fills; got < fileBlocks {
			t.Errorf("%d readahead fills over %d reads: the gate missed the fills", got, 4*fileBlocks)
		}
		if !bytes.Equal(buf, payload[:core.BlockSize]) {
			t.Errorf("read back wrong bytes")
		}
	})
}

// TestFlushBlocksAllocatesNothing gates the store's flush job on the
// real kernel: routing a job to the array adds no allocation to the
// array's own WriteBlocks of the same blocks (the write list is the
// store's spare, reused).
func TestFlushBlocksAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops the partition's pooled requests at random")
	}
	payload := bytes.Repeat([]byte{0x6B}, 2*core.BlockSize)
	onRealFile(t, payload, func(tk sched.Task, v *Volume, h *Handle) {
		ino := h.File().ino
		blocks := make([]*cache.Block, 2)
		writes := make([]layout.BlockWrite, 2)
		for i := range blocks {
			data := payload[i*core.BlockSize : (i+1)*core.BlockSize]
			key := core.BlockKey{Vol: v.ID, File: ino.ID, Blk: core.BlockNo(i)}
			blocks[i] = &cache.Block{Key: key, Data: data, Size: core.BlockSize}
			writes[i] = layout.BlockWrite{Blk: key.Blk, Data: data, Size: core.BlockSize}
		}
		s := NewStore()
		s.Bind(v.fs)
		flush := func() {
			if err := s.FlushBlocks(tk, blocks); err != nil {
				t.Errorf("FlushBlocks: %v", err)
			}
		}
		bare := func() {
			if err := v.arr.WriteBlocks(tk, ino, writes); err != nil {
				t.Errorf("WriteBlocks: %v", err)
			}
		}
		flush() // the spare list grows once
		base := testing.AllocsPerRun(100, bare)
		if n := testing.AllocsPerRun(100, flush); n > base {
			t.Errorf("FlushBlocks: %v allocs per job, the bare WriteBlocks %v", n, base)
		}
	})
}
