package nfs_test

import (
	"bytes"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fsys"
	"repro/internal/layout"
	"repro/internal/lfs"
	"repro/internal/nfs"
	"repro/internal/sched"
	"repro/internal/volume"
)

// ramServer is a whole serving stack on a RAM disk under the real
// kernel — LFS, a UPS block cache, the file-system front-end and the
// NFS server on a loopback port — with no image file behind it.
type ramServer struct {
	k    *sched.RKernel
	srv  *nfs.Server
	addr string
}

// newRAMServer boots a server of the given disk and cache sizes (in
// blocks); the test's cleanup stops it.
func newRAMServer(tb testing.TB, diskBlocks int64, cacheBlocks int) *ramServer {
	tb.Helper()
	k := sched.NewReal(1)
	drv := device.NewMemDriver(k, "mem0", diskBlocks, nil)
	part := layout.NewPartition(drv, 0, 0, diskBlocks, false)
	lay, err := volume.New(k, "vol1", []layout.Layout{lfs.New(k, "vol1", part, lfs.Config{SegBlocks: 64, MaxInodes: 1 << 12})}, volume.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	store := fsys.NewStore()
	c := cache.New(k, cache.Config{Blocks: cacheBlocks, Flush: cache.UPS()}, store)
	fs := fsys.New(k, c, core.RealMover{})
	store.Bind(fs)
	c.Start()
	errc := make(chan error, 1)
	k.Go("mount", func(t sched.Task) {
		err := lay.Format(t)
		if err == nil {
			err = lay.Mount(t)
		}
		if err == nil {
			_, err = fs.AddVolume(t, 1, lay)
		}
		errc <- err
	})
	if err := <-errc; err != nil {
		tb.Fatalf("mount RAM volume: %v", err)
	}
	srv, err := nfs.ServeOpts(k, fs, "127.0.0.1:0", nfs.Options{})
	if err != nil {
		tb.Fatalf("ServeOpts: %v", err)
	}
	tb.Cleanup(func() {
		srv.Close()
		done := make(chan struct{})
		k.Go("close", func(t sched.Task) {
			c.Close(t)
			close(done)
		})
		<-done
	})
	return &ramServer{k: k, srv: srv, addr: srv.Addr()}
}

// dial connects a pipelined client that the test's cleanup closes.
func (r *ramServer) dial(tb testing.TB, window int) *nfs.Client {
	tb.Helper()
	cl, err := nfs.DialPipeline(r.addr, window)
	if err != nil {
		tb.Fatalf("DialPipeline: %v", err)
	}
	tb.Cleanup(func() { cl.Close() })
	return cl
}

// hotFile creates a file of the given size on cl's volume and writes
// a pattern into it, so later reads are cache hits.
func hotFile(tb testing.TB, cl *nfs.Client, name string, size int) (nfs.FH, []byte) {
	tb.Helper()
	root, _, err := cl.Mount(1)
	if err != nil {
		tb.Fatalf("Mount: %v", err)
	}
	fh, _, err := cl.Create(root, name)
	if err != nil {
		tb.Fatalf("Create: %v", err)
	}
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i*7 + i>>12)
	}
	for off := 0; off < size; off += nfs.MaxIO {
		end := min(off+nfs.MaxIO, size)
		if _, err := cl.Write(fh, int64(off), data[off:end]); err != nil {
			tb.Fatalf("Write: %v", err)
		}
	}
	return fh, data
}

// readRoundTripCeiling bounds the allocations of one cache-hit 8 KB
// read round trip, client and server together: the measured 3 (the
// reply frame the caller keeps, the call's argument closure and
// fsys's per-call *Handle) plus 2. The per-call codecs, frame buffers,
// reply channels and borrowed-read lists that used to cost ~33 more
// are per-connection now.
const readRoundTripCeiling = 5

// TestReadRoundTripAllocs is the allocation gate of the serving path:
// a cache-hit 8 KB read through a pipelined client and the server must
// stay under readRoundTripCeiling allocations, counted across every
// goroutine of the process.
func TestReadRoundTripAllocs(t *testing.T) {
	r := newRAMServer(t, 4096, 256)
	cl := r.dial(t, 4)
	fh, data := hotFile(t, cl, "hot", 64<<10)
	const n = 2 * core.BlockSize
	off := int64(0)
	read := func() {
		got, err := cl.Read(fh, off, n)
		if err != nil || !bytes.Equal(got, data[off:off+n]) {
			t.Fatalf("read at %d: %v", off, err)
		}
		off = (off + n) % int64(len(data))
	}
	for i := 0; i < 16; i++ {
		read() // warm the connection's free lists and the cache
	}
	allocs := testing.AllocsPerRun(500, read)
	t.Logf("cache-hit 8 KB read round trip: %.2f allocs", allocs)
	if allocs > readRoundTripCeiling {
		t.Fatalf("cache-hit 8 KB read round trip allocates %.2f objects, ceiling %d", allocs, readRoundTripCeiling)
	}
}

// BenchmarkRead times a cache-hit 8 KB read round trip over loopback:
// a pipelined client and a RAM-backed server.
func BenchmarkRead(b *testing.B) {
	r := newRAMServer(b, 4096, 256)
	cl := r.dial(b, 4)
	fh, _ := hotFile(b, cl, "hot", 256<<10)
	const n = 2 * core.BlockSize
	b.ReportAllocs()
	b.SetBytes(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Read(fh, int64(i%32)*n, n); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWrite times an 8 KB overwrite of cached blocks over
// loopback: a pipelined client and a RAM-backed server.
func BenchmarkWrite(b *testing.B) {
	r := newRAMServer(b, 4096, 256)
	cl := r.dial(b, 4)
	fh, data := hotFile(b, cl, "hot", 256<<10)
	const n = 2 * core.BlockSize
	b.ReportAllocs()
	b.SetBytes(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i%32) * n
		if _, err := cl.Write(fh, off, data[off:off+n]); err != nil {
			b.Fatal(err)
		}
	}
}
