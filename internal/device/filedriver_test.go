package device

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
)

// onTask runs fn on a task of k and waits for it.
func onTask(k sched.Kernel, fn func(tk sched.Task)) {
	done := make(chan struct{})
	k.Go("test", func(tk sched.Task) {
		defer close(done)
		fn(tk)
	})
	<-done
}

// blockVec is a vector of n one-block segments, each filled with fill.
func blockVec(n int, fill byte) [][]byte {
	vec := make([][]byte, n)
	for i := range vec {
		vec[i] = bytes.Repeat([]byte{fill}, core.BlockSize)
	}
	return vec
}

// newFileDriver opens a file driver of blocks blocks on the real
// kernel, closed when the test ends.
func newFileDriver(tb testing.TB, blocks int64) (*sched.RKernel, Driver) {
	tb.Helper()
	k := sched.NewReal(1)
	drv, err := NewFileDriver(k, "f0", filepath.Join(tb.TempDir(), "disk.img"), blocks, nil)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		drv.Close()
		k.Stop()
	})
	return k, drv
}

// BenchmarkFileDriverVec times one vectored write of 1 and of 16
// blocks through a file driver on the real kernel: queueing, the
// worker hand-off, one pwritev and the completion.
func BenchmarkFileDriverVec(b *testing.B) {
	for _, n := range []int{1, 16} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			k, drv := newFileDriver(b, 64)
			vec := blockVec(n, 0x5A)
			r := new(Request)
			b.SetBytes(int64(n) * core.BlockSize)
			b.ReportAllocs()
			onTask(k, func(tk sched.Task) {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					*r = Request{Op: OpWrite, Addr: core.DiskAddr{LBA: int64(i % 32)}, Blocks: n, Vec: vec}
					if err := drv.Do(tk, r); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// A warm file driver moves a vectored request with no allocation: the
// completion event comes back to the driver, the raw connection and
// the iovec scratch are the back-end's own.
func TestFileDriverVecAllocatesNothing(t *testing.T) {
	k, drv := newFileDriver(t, 64)
	for _, n := range []int{1, 16} {
		vec := blockVec(n, 0x5A)
		r := new(Request)
		var allocs float64
		onTask(k, func(tk sched.Task) {
			allocs = testing.AllocsPerRun(200, func() {
				*r = Request{Op: OpWrite, Addr: core.DiskAddr{LBA: 8}, Blocks: n, Vec: vec}
				if err := drv.Do(tk, r); err != nil {
					t.Error(err)
				}
			})
		})
		if allocs != 0 {
			t.Errorf("%d-block vectored write: %v allocs/op, want 0", n, allocs)
		}
	}
}

// writeTracked writes seg as one vectored block at LBA 0. The request
// lives only here, so after the call nothing of the caller's refers
// to seg.
func writeTracked(t *testing.T, k sched.Kernel, drv Driver, seg []byte) {
	onTask(k, func(tk sched.Task) {
		r := &Request{Op: OpWrite, Addr: core.DiskAddr{LBA: 0}, Blocks: 1, Vec: [][]byte{seg}}
		if err := drv.Do(tk, r); err != nil {
			t.Error(err)
		}
	})
}

// Once a vectored write completes, the driver keeps nothing of it:
// the buffer it wrote becomes collectable. The back-end reuses its
// segment and iovec scratch, and an uncleared iovec Base pins the
// last request's buffer just as an uncleared segment header does.
func TestVectoredWriteReleasesBuffers(t *testing.T) {
	k, drv := newFileDriver(t, 8)
	collected := make(chan struct{})
	func() {
		seg := new([core.BlockSize]byte)
		runtime.SetFinalizer(seg, func(*[core.BlockSize]byte) { close(collected) })
		writeTracked(t, k, drv, seg[:])
	}()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a completed vectored write's buffer is still reachable from the driver")
}

// A completion event goes back to the driver after Wait and the next
// request takes it again, so it must carry no signal over. A torn
// write between two requests on one driver performs a copy of its
// request at the fault seam, which must not signal the shared event
// a second time: the read after it still waits for its own transfer.
func TestReusedCompletionCarriesNoSignal(t *testing.T) {
	k := sched.NewReal(1)
	defer k.Stop()
	drv := NewMemDriver(k, "mem", 64, nil)
	plan := NewFaultPlan(FaultConfig{Seed: 7, TornRate: 1})
	const n = 8
	onTask(k, func(tk sched.Task) {
		w := &Request{Op: OpWrite, Addr: core.DiskAddr{LBA: 0}, Blocks: n, Vec: blockVec(n, 0xAA)}
		if err := drv.Do(tk, w); err != nil {
			t.Errorf("first write: %v", err)
		}
		drv.SetInjector(plan)
		torn := &Request{Op: OpWrite, Addr: core.DiskAddr{LBA: 0}, Blocks: n, Vec: blockVec(n, 0xBB)}
		if err := drv.Do(tk, torn); !errors.Is(err, ErrTornWrite) {
			t.Errorf("torn write: err=%v, want ErrTornWrite", err)
		}
		drv.SetInjector(nil)
		buf := make([]byte, n*core.BlockSize)
		r := &Request{Op: OpRead, Addr: core.DiskAddr{LBA: 0}, Blocks: n, Data: buf}
		if err := drv.Do(tk, r); err != nil {
			t.Errorf("read: %v", err)
		}
		if r.Completed == 0 || r.Completed < r.Started {
			t.Errorf("read returned before the worker completed it (started %v, completed %v)", r.Started, r.Completed)
		}
		prefix := bytes.IndexByte(buf, 0xAA)
		if prefix <= 0 || prefix%core.BlockSize != 0 ||
			!bytes.Equal(buf[:prefix], bytes.Repeat([]byte{0xBB}, prefix)) ||
			!bytes.Equal(buf[prefix:], bytes.Repeat([]byte{0xAA}, len(buf)-prefix)) {
			t.Errorf("read after the torn write does not show a torn prefix over the first write")
		}
	})
	if got := len(drv.(*driver).done); got != 1 {
		t.Fatalf("driver holds %d idle completion events after serial requests, want the one they shared", got)
	}
}

type interceptFunc func(r *Request) Decision

func (f interceptFunc) Intercept(r *Request) Decision { return f(r) }

// Closing a file driver while a vectored transfer is in flight never
// lets the transfer touch a reused descriptor: the descriptor stays
// open until the raw syscalls are done, so a file opened right after
// the Close cannot get its number and receive the write. The request
// completes, or, if the Close came first, fails with os.ErrClosed.
func TestCloseDuringVectoredTransfer(t *testing.T) {
	// 4 MB in 256-byte segments: sixteen pwritev calls of iovMax
	// segments each, so a Close can land between two of them.
	const blocks = 1024
	vec := make([][]byte, blocks*core.BlockSize/256)
	flat := bytes.Repeat([]byte{0x5A}, blocks*core.BlockSize)
	for i := range vec {
		vec[i] = flat[i*256 : (i+1)*256]
	}
	dir := t.TempDir()
	for i := 0; i < 20; i++ {
		k := sched.NewReal(int64(i))
		drv, err := NewFileDriver(k, "f", filepath.Join(dir, fmt.Sprintf("disk%d.img", i)), blocks, nil)
		if err != nil {
			t.Fatal(err)
		}
		// A Close that beat the request to the worker would fail it at
		// once with os.ErrClosed, no transfer in flight, so close only
		// once the worker has the request at the hardware boundary,
		// then at a later point in each round.
		began := make(chan struct{})
		drv.SetInjector(interceptFunc(func(*Request) Decision {
			close(began)
			return Decision{}
		}))
		errc := make(chan error, 1)
		k.Go("io", func(tk sched.Task) {
			errc <- drv.Do(tk, &Request{Op: OpWrite, Addr: core.DiskAddr{LBA: 0}, Blocks: blocks, Vec: vec})
		})
		<-began
		time.Sleep(time.Duration(i) * 100 * time.Microsecond)
		if err := drv.Close(); err != nil {
			t.Fatalf("round %d: close: %v", i, err)
		}
		other, err := os.Create(filepath.Join(dir, fmt.Sprintf("other%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := <-errc; err != nil && !errors.Is(err, os.ErrClosed) {
			t.Fatalf("round %d: in-flight write failed with %v, want success or os.ErrClosed", i, err)
		}
		st, err := other.Stat()
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() != 0 {
			t.Fatalf("round %d: the in-flight write reached a file opened after Close (%d bytes)", i, st.Size())
		}
		other.Close()
		k.Stop()
	}
}
