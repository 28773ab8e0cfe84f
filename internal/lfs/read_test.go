package lfs

import (
	"bytes"
	"fmt"
	"sync/atomic"
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

// stallDrv parks the first read of block lba on the reading task, after
// the layout has issued it and before the device sees it, until
// release is closed.
type stallDrv struct {
	device.Driver
	lba     atomic.Int64 // -1: none armed
	stalled chan struct{}
	release chan struct{}
}

func (d *stallDrv) Do(t sched.Task, r *device.Request) error {
	if r.Op == device.OpRead && d.lba.CompareAndSwap(r.Addr.LBA, -1) {
		close(d.stalled)
		<-d.release
	}
	return d.Driver.Do(t, r)
}

// TestReadInFlightKeepsItsSegment: ReadRunVec drops the layout lock
// before its device request, so while the read is on its way the
// overwrites can move the block, the cleaner can free its segment and
// the log head can be opened there again. The read must still return
// the block it looked up, not whatever the log wrote over it since.
func TestReadInFlightKeepsItsSegment(t *testing.T) {
	const (
		blocks     = 512 // 31 segments of 16 blocks
		fileBlocks = 8
	)
	k := sched.NewReal(61)
	defer k.Stop()
	drv := &stallDrv{Driver: device.NewMemDriver(k, "mem0", blocks, nil),
		stalled: make(chan struct{}), release: make(chan struct{})}
	defer drv.Close()
	drv.lba.Store(-1)
	l := New(k, "vol0", layout.NewPartition(drv, 0, 0, blocks, false), Config{SegBlocks: 16, MaxInodes: 64})
	block := func(b int, gen byte) []byte {
		buf := bytes.Repeat([]byte{gen}, core.BlockSize)
		copy(buf, fmt.Sprintf("%08d", b))
		return buf
	}
	overwrite := func(tk sched.Task, ino *layout.Inode, gen byte) error {
		ws := make([]layout.BlockWrite, fileBlocks)
		for b := range ws {
			ws[b] = layout.BlockWrite{Blk: core.BlockNo(b), Data: block(b, gen), Size: core.BlockSize}
		}
		if err := l.WriteBlocks(tk, ino, ws); err != nil {
			return err
		}
		return l.Sync(tk)
	}
	do := func(fn func(tk sched.Task) error) {
		t.Helper()
		errc := make(chan error, 1)
		k.Go("step", func(tk sched.Task) { errc <- fn(tk) })
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	var ino *layout.Inode
	var seg int
	do(func(tk sched.Task) error {
		if err := l.Format(tk); err != nil {
			return err
		}
		if err := l.Mount(tk); err != nil {
			return err
		}
		var err error
		if ino, err = l.AllocInode(tk, core.TypeRegular); err != nil {
			return err
		}
		ino.Size = fileBlocks * core.BlockSize
		if err := overwrite(tk, ino, 1); err != nil {
			return err
		}
		addr := ino.BlockAddr(0)
		seg = l.segOf(addr)
		drv.lba.Store(addr)
		return nil
	})

	got := make([]byte, core.BlockSize)
	readErr := make(chan error, 1)
	k.Go("reader", func(tk sched.Task) { readErr <- readOne(tk, l, ino, 0, got) })
	<-drv.stalled
	// Overwrite the file 256 times, about four times the partition:
	// the block's segment is cleaned and, unless the read holds it,
	// written again.
	do(func(tk sched.Task) error {
		for i := 0; i < 4*blocks/fileBlocks; i++ {
			if err := overwrite(tk, ino, byte(2+i%200)); err != nil {
				return err
			}
		}
		if l.segsCleaned.Value() == 0 {
			return fmt.Errorf("the cleaner never ran")
		}
		return nil
	})
	close(drv.release)
	if err := <-readErr; err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, block(0, 1)) {
		t.Fatalf("the read of block 0 (segment %d) returned %q..., want %q...", seg, got[:9], block(0, 1)[:9])
	}
}
