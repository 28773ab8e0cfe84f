package fsys_test

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fsys"
	"repro/internal/layout"
	"repro/internal/sched"
	"repro/internal/stack"
)

// The front-end's per-layer benchmarks: one op is what the NFS server
// does per call — resolve the handle by inode number, move one block,
// close — on a real-kernel stack over a RAM disk, assembled the way
// the server assembles it. The file fits in the cache, so neither
// benchmark reaches the layout: they measure fsys and the cache hit
// path (the hot_read and write_burst workloads minus the wire).

const (
	benchVolBlocks  = 4096
	benchFileBlocks = 32
)

// benchVolume mounts a fresh volume over a RAM disk and writes one
// benchFileBlocks-block file, synced, whose blocks stay cached.
func benchVolume(b *testing.B) (*sched.RKernel, *fsys.Volume, core.FileID) {
	k := sched.NewReal(1)
	sc := stack.Config{ClusterRun: layout.DefaultClusterRun}
	drv := device.NewMemDriver(k, "mem", benchVolBlocks, nil)
	arr, err := sc.Array(k, "vol", []*layout.Partition{sc.Partition(drv, 0, 0, benchVolBlocks)})
	if err != nil {
		b.Fatal(err)
	}
	fs, ca := sc.FrontEnd(k, cache.Config{Blocks: 4 * benchFileBlocks, Flush: cache.UPS()})
	var v *fsys.Volume
	var id core.FileID
	inTask(b, k, func(tk sched.Task) error {
		if _, err := stack.Mount(tk, fs, true, nil, arr); err != nil {
			return err
		}
		v = fs.Vol(1)
		h, err := v.Create(tk, "/f", core.TypeRegular)
		if err != nil {
			return err
		}
		data := make([]byte, benchFileBlocks*core.BlockSize)
		if err := v.WriteAt(tk, h, 0, data, int64(len(data))); err != nil {
			return err
		}
		id = h.ID()
		if err := v.Close(tk, h); err != nil {
			return err
		}
		return fs.SyncAll(tk)
	})
	b.Cleanup(func() {
		inTask(b, k, func(tk sched.Task) error { ca.Close(tk); return nil })
		k.Stop()
	})
	return k, v, id
}

func inTask(b *testing.B, k sched.Kernel, fn func(tk sched.Task) error) {
	b.Helper()
	errc := make(chan error, 1)
	k.Go("bench", func(tk sched.Task) { errc <- fn(tk) })
	if err := <-errc; err != nil {
		b.Fatal(err)
	}
}

// BenchmarkReadAtHit reads one cached block per op.
func BenchmarkReadAtHit(b *testing.B) {
	k, v, id := benchVolume(b)
	buf := make([]byte, core.BlockSize)
	b.ReportAllocs()
	b.ResetTimer()
	inTask(b, k, func(tk sched.Task) error {
		for i := 0; i < b.N; i++ {
			h, err := v.OpenByID(tk, id)
			if err != nil {
				return err
			}
			off := int64(i%benchFileBlocks) * core.BlockSize
			if _, err := v.ReadAt(tk, h, off, buf, core.BlockSize); err != nil {
				return err
			}
			if err := v.Close(tk, h); err != nil {
				return err
			}
		}
		return nil
	})
}

// BenchmarkWriteAtOverwrite overwrites one cached block per op. Under
// the UPS policy the dirty blocks stay in the cache, so no op flushes.
func BenchmarkWriteAtOverwrite(b *testing.B) {
	k, v, id := benchVolume(b)
	buf := make([]byte, core.BlockSize)
	b.ReportAllocs()
	b.ResetTimer()
	inTask(b, k, func(tk sched.Task) error {
		for i := 0; i < b.N; i++ {
			h, err := v.OpenByID(tk, id)
			if err != nil {
				return err
			}
			off := int64(i%benchFileBlocks) * core.BlockSize
			if err := v.WriteAt(tk, h, off, buf, core.BlockSize); err != nil {
				return err
			}
			if err := v.Close(tk, h); err != nil {
				return err
			}
		}
		return nil
	})
}
