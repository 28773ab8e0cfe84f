package layout

import (
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/sched"
)

// The layout library's per-layer benchmarks: the inode record codec
// every member layout persists inodes through, and the partition's
// vectored read, the request a clustered fill issues (the cold_stream
// workload's read path minus the layouts' block maps).

func benchInode() *DiskInode {
	return &DiskInode{
		Ino:    Inode{ID: 7, Type: core.TypeRegular, Size: 40 * core.BlockSize, Nlink: 1, MTime: 1996},
		Direct: [NDirect]int64{11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22},
		Ind:    23,
	}
}

// BenchmarkEncodeInode encodes one inode record.
func BenchmarkEncodeInode(b *testing.B) {
	d := benchInode()
	buf := make([]byte, InodeSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EncodeInode(d, buf)
	}
}

// BenchmarkDecodeInode decodes and checks one inode record.
func BenchmarkDecodeInode(b *testing.B) {
	buf := make([]byte, InodeSize)
	EncodeInode(benchInode(), buf)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeInode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPartitionReadVec reads an 8-block run per op into eight
// block-sized segments, over a RAM disk on the real kernel.
func BenchmarkPartitionReadVec(b *testing.B) {
	const run, blocks = 8, 1024
	k := sched.NewReal(1)
	defer k.Stop()
	drv := device.NewMemDriver(k, "m", blocks, nil)
	defer drv.Close()
	p := NewPartition(drv, 0, 0, blocks, false)
	vec := make([][]byte, run)
	for i := range vec {
		vec[i] = make([]byte, core.BlockSize)
	}
	b.ReportAllocs()
	b.ResetTimer()
	errc := make(chan error, 1)
	k.Go("bench", func(tk sched.Task) {
		for i := 0; i < b.N; i++ {
			if err := p.ReadVec(tk, int64(i*run%blocks), run, vec); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	})
	if err := <-errc; err != nil {
		b.Fatal(err)
	}
}
