package lfs

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

// readRig is a mounted LFS over a RAM device holding one file of
// nblocks blocks written in a single segment, so every run of up to
// layout.DefaultClusterRun blocks is disk-contiguous.
func readRig(tk sched.Task, k sched.Kernel, nblocks int) (*LFS, *layout.Inode, error) {
	drv := device.NewMemDriver(k, "mem0", 4096, nil)
	l := New(k, "vol0", layout.NewPartition(drv, 0, 0, 4096, false), Config{SegBlocks: 128, MaxInodes: 64})
	l.SetClusterRun(layout.DefaultClusterRun)
	if err := l.Format(tk); err != nil {
		return nil, nil, err
	}
	if err := l.Mount(tk); err != nil {
		return nil, nil, err
	}
	ino, err := l.AllocInode(tk, core.TypeRegular)
	if err != nil {
		return nil, nil, err
	}
	blocks := make([]byte, nblocks)
	for i := range blocks {
		blocks[i] = byte(i + 1)
	}
	if err := writeFile(tk, l, ino, blocks...); err != nil {
		return nil, nil, err
	}
	return l, ino, l.Sync(tk)
}

// BenchmarkReadRunVec measures one ReadRunVec of 1 and of 16 blocks
// through the log layout over a RAM device (run with -benchmem).
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
	l, ino, err := readRig(tk, k, 4*run)
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
		if got, err := l.ReadRunVec(tk, ino, blk, run, vec); err != nil || got != run {
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
		l, ino, err := readRig(tk, k, 4)
		if err != nil {
			t.Error(err)
			return
		}
		vec := [][]byte{make([]byte, core.BlockSize)}
		addr := ino.BlockAddr(2)
		got := 0
		dev := testing.AllocsPerRun(100, func() { err = l.part.Read(tk, addr, 1, vec[0]) })
		if err != nil {
			t.Error(err)
			return
		}
		lay := testing.AllocsPerRun(100, func() { got, err = l.ReadRunVec(tk, ino, 2, 1, vec) })
		if err != nil || got != 1 {
			t.Errorf("ReadRunVec: covered %d: %v", got, err)
			return
		}
		if lay != dev {
			t.Errorf("one-block ReadRunVec allocates %v per call, the device read alone %v", lay, dev)
		}
	})
}
