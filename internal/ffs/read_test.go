package ffs

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/layout"
	"repro/internal/sched"
)

// readOne reads file block blk into buf (nil when simulated) with a
// one-block ReadRunVec.
func readOne(t sched.Task, lay layout.Layout, ino *layout.Inode, blk core.BlockNo, buf []byte) error {
	var vec [][]byte
	if buf != nil {
		vec = [][]byte{buf}
	}
	_, err := lay.ReadRunVec(t, ino, blk, 1, vec)
	return err
}

// readRig is a mounted FFS over a RAM device holding one file of
// nblocks blocks, allocated as one contiguous run.
func readRig(tk sched.Task, k sched.Kernel, nblocks int) (*FFS, *layout.Inode, error) {
	drv := device.NewMemDriver(k, "mem0", 2048, nil)
	f := New(k, "vol0", layout.NewPartition(drv, 0, 0, 2048, false), Config{BlocksPerGroup: 512, InodesPerGroup: 64})
	f.SetClusterRun(layout.DefaultClusterRun)
	if err := f.Format(tk); err != nil {
		return nil, nil, err
	}
	if err := f.Mount(tk); err != nil {
		return nil, nil, err
	}
	ino, err := f.AllocInode(tk, core.TypeRegular)
	if err != nil {
		return nil, nil, err
	}
	var ws []layout.BlockWrite
	for i := 0; i < nblocks; i++ {
		ws = append(ws, layout.BlockWrite{Blk: core.BlockNo(i), Data: blockOf(byte(i + 1)), Size: core.BlockSize})
	}
	ino.Size = int64(nblocks) * core.BlockSize
	if err := f.WriteBlocks(tk, ino, ws); err != nil {
		return nil, nil, err
	}
	return f, ino, nil
}

// BenchmarkReadRunVec measures one ReadRunVec of 1 and of 16 blocks
// through the FFS layout over a RAM device (run with -benchmem).
func BenchmarkReadRunVec(b *testing.B) {
	for _, run := range []int{1, 16} {
		b.Run(fmt.Sprintf("blocks=%d", run), func(b *testing.B) {
			k := sched.NewVirtual(1)
			k.Go("bench", func(tk sched.Task) {
				if err := benchReads(b, tk, k, run); err != nil {
					b.Error(err)
				}
				k.Stop()
			})
			if err := k.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

func benchReads(b *testing.B, tk sched.Task, k sched.Kernel, run int) error {
	f, ino, err := readRig(tk, k, 4*run)
	if err != nil {
		return err
	}
	vec := make([][]byte, run)
	for i := range vec {
		vec[i] = make([]byte, core.BlockSize)
	}
	b.SetBytes(int64(run) * core.BlockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk := core.BlockNo((i % 4) * run)
		if got, err := f.ReadRunVec(tk, ino, blk, run, vec); err != nil || got != run {
			return fmt.Errorf("read at %d: covered %d of %d: %v", blk, got, run, err)
		}
	}
	return nil
}

// TestOneBlockReadAddsNoAllocation gates the one-block read: a
// ReadRunVec of one block allocates exactly what the device read it
// issues does (the request), so a vector or buffer the layout built
// per call would show up here.
func TestOneBlockReadAddsNoAllocation(t *testing.T) {
	k := sched.NewVirtual(1)
	run(t, k, func(tk sched.Task) {
		f, ino, err := readRig(tk, k, 4)
		if err != nil {
			t.Error(err)
			return
		}
		vec := [][]byte{make([]byte, core.BlockSize)}
		addr := ino.BlockAddr(2)
		got := 0
		dev := testing.AllocsPerRun(100, func() { err = f.part.Read(tk, addr, 1, vec[0]) })
		if err != nil {
			t.Error(err)
			return
		}
		lay := testing.AllocsPerRun(100, func() { got, err = f.ReadRunVec(tk, ino, 2, 1, vec) })
		if err != nil || got != 1 {
			t.Errorf("ReadRunVec: covered %d: %v", got, err)
			return
		}
		if lay != dev {
			t.Errorf("one-block ReadRunVec allocates %v per call, the device read alone %v", lay, dev)
		}
	})
}
