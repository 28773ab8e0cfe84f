package volume

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/layout"
	"repro/internal/lfs"
	"repro/internal/sched"
)

// The executor's per-layer benchmarks, on RAM-backed LFS members:
// one-block overwrites each followed by a write barrier (the
// parity_write workload's flush job, minus the cache and the wire)
// and degraded reads. They use only the public Array API.

const benchBlocks = 2048 // per member: 16 segments, the cleaner keeps up

// benchArray formats a width-member array holding one fully written
// file of nblocks.
func benchArray(b *testing.B, width int, cfg Config, nblocks int) (*sched.RKernel, *Array, *layout.Inode) {
	k := sched.NewReal(1)
	subs := make([]layout.Layout, width)
	for i := range subs {
		drv := device.NewMemDriver(k, fmt.Sprintf("mem%d", i), benchBlocks, nil)
		subs[i] = lfs.New(k, fmt.Sprintf("d%d", i), layout.NewPartition(drv, i, 0, benchBlocks, false), lfs.DefaultConfig())
	}
	arr, err := New(k, "arr", subs, cfg)
	if err != nil {
		b.Fatal(err)
	}
	var ino *layout.Inode
	benchTask(b, k, func(tk sched.Task) error {
		if err := arr.Format(tk); err != nil {
			return err
		}
		if err := arr.Mount(tk); err != nil {
			return err
		}
		if _, err := arr.AllocInode(tk, core.TypeDirectory); err != nil {
			return err
		}
		if ino, err = arr.AllocInode(tk, core.TypeRegular); err != nil {
			return err
		}
		ws := make([]layout.BlockWrite, nblocks)
		for i := range ws {
			ws[i] = layout.BlockWrite{Blk: core.BlockNo(i), Data: pattern(core.BlockNo(i), core.BlockSize), Size: core.BlockSize}
		}
		arr.GrowSize(tk, ino, int64(nblocks)*core.BlockSize)
		if err := arr.WriteBlocks(tk, ino, ws); err != nil {
			return err
		}
		return arr.Sync(tk)
	})
	return k, arr, ino
}

// benchTask runs fn on a kernel task and waits for it.
func benchTask(b *testing.B, k sched.Kernel, fn func(tk sched.Task) error) {
	errc := make(chan error, 1)
	k.Go("bench", func(tk sched.Task) { errc <- fn(tk) })
	if err := <-errc; err != nil {
		b.Fatal(err)
	}
}

func benchOverwrite(b *testing.B, cfg Config) {
	const nblocks = 64
	k, arr, ino := benchArray(b, 4, cfg, nblocks)
	data := pattern(7, core.BlockSize)
	b.ReportAllocs()
	b.ResetTimer()
	benchTask(b, k, func(tk sched.Task) error {
		for i := 0; i < b.N; i++ {
			blk := core.BlockNo(i * 7 % nblocks)
			if err := arr.WriteBlocks(tk, ino, []layout.BlockWrite{{Blk: blk, Data: data, Size: core.BlockSize}}); err != nil {
				return err
			}
			if err := arr.WriteBarrier(tk); err != nil {
				return err
			}
		}
		return nil
	})
}

// BenchmarkParityWrite is the RAID-5 small write: read old data and
// parity, write both, on a 4-member parity array.
func BenchmarkParityWrite(b *testing.B) {
	benchOverwrite(b, Config{Placement: PlacementParity, StripeBlocks: 8})
}

// BenchmarkMirroredWrite writes the block and its copy on a 4-member
// mirrored array.
func BenchmarkMirroredWrite(b *testing.B) {
	benchOverwrite(b, Config{Placement: PlacementMirrored, StripeBlocks: 8})
}

// BenchmarkDegradedRead sweeps a file's blocks on a 4-member parity
// array with member 1 dead: a quarter of the reads reconstruct from
// the other three cells of their column.
func BenchmarkDegradedRead(b *testing.B) {
	const nblocks = 64
	k, arr, ino := benchArray(b, 4, Config{Placement: PlacementParity, StripeBlocks: 8}, nblocks)
	if err := arr.KillMember(1); err != nil {
		b.Fatal(err)
	}
	vec := [][]byte{make([]byte, core.BlockSize)}
	b.ReportAllocs()
	b.ResetTimer()
	benchTask(b, k, func(tk sched.Task) error {
		for i := 0; i < b.N; i++ {
			if _, err := arr.ReadRunVec(tk, ino, core.BlockNo(i%nblocks), 1, vec); err != nil {
				return err
			}
		}
		return nil
	})
}

// BenchmarkWidth1Write overwrites n blocks of a file per op on a
// one-member array — the single-stack server's write path. The array
// must add no allocation to its member's.
func BenchmarkWidth1Write(b *testing.B) {
	for _, n := range []int{1, 16} {
		b.Run(fmt.Sprintf("blocks=%d", n), func(b *testing.B) {
			const nblocks = 64
			k, arr, ino := benchArray(b, 1, Config{}, nblocks)
			ws := make([]layout.BlockWrite, n)
			for i := range ws {
				ws[i] = layout.BlockWrite{Data: pattern(core.BlockNo(i), core.BlockSize), Size: core.BlockSize}
			}
			b.ReportAllocs()
			b.ResetTimer()
			benchTask(b, k, func(tk sched.Task) error {
				for i := 0; i < b.N; i++ {
					for j := range ws {
						ws[j].Blk = core.BlockNo((i*n + j) % nblocks)
					}
					if err := arr.WriteBlocks(tk, ino, ws); err != nil {
						return err
					}
				}
				return nil
			})
		})
	}
}
