package layout_test

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/ffs"
	"repro/internal/layout"
	"repro/internal/lfs"
	"repro/internal/sched"
	"repro/internal/volume"
)

// The run-read contract, checked through the layout.Layout interface
// over every implementation: each rig is built twice — on RAM-backed
// partitions that move bytes and on simulated partitions that move
// none — and must report the same run lengths on both.

const (
	rigBlocks = 2048
	rigChunk  = 4 // stripe-chunk width of the striped and parity rigs
)

// nullDrv is the simulator's device: requests complete at once and
// carry no data.
type nullDrv struct{}

func (nullDrv) Name() string                             { return "null" }
func (nullDrv) Submit(t sched.Task, r *device.Request)   {}
func (nullDrv) Wait(t sched.Task, r *device.Request)     {}
func (nullDrv) Do(t sched.Task, r *device.Request) error { return nil }
func (nullDrv) QueueLen() int                            { return 0 }
func (nullDrv) CapacityBlocks() int64                    { return rigBlocks }
func (nullDrv) DriverStats() *device.DriverStats         { return nil }
func (nullDrv) SetInjector(device.Interceptor)           {}
func (nullDrv) Close() error                             { return nil }

// tapDrv counts the read requests that reach a device and can refuse
// writes.
type tapDrv struct {
	device.Driver
	reads      int
	failWrites bool
}

var errRefused = errors.New("tap: write refused")

func (d *tapDrv) Do(t sched.Task, r *device.Request) error {
	if r.Op == device.OpRead {
		d.reads++
	} else if d.failWrites {
		return errRefused
	}
	return d.Driver.Do(t, r)
}

type rig struct {
	name  string
	width int
	// chunked rigs split runs at rigChunk boundaries.
	chunked bool
	// pending rigs keep a block whose write-through failed in the LFS
	// pending map, and serve it from there.
	pending bool
	build   func(k sched.Kernel, parts []*layout.Partition, sim bool) (layout.Layout, error)
}

func lfsOn(k sched.Kernel, i int, part *layout.Partition) layout.Layout {
	return lfs.New(k, fmt.Sprintf("d%d", i), part, lfs.Config{SegBlocks: 32})
}

func arrayOf(placement string) func(sched.Kernel, []*layout.Partition, bool) (layout.Layout, error) {
	return func(k sched.Kernel, parts []*layout.Partition, sim bool) (layout.Layout, error) {
		subs := make([]layout.Layout, len(parts))
		for i, p := range parts {
			subs[i] = lfsOn(k, i, p)
		}
		return volume.New(k, "arr", subs, volume.Config{Placement: placement, StripeBlocks: rigChunk, Simulated: sim})
	}
}

var rigs = []rig{
	{name: "lfs", width: 1, pending: true, build: func(k sched.Kernel, parts []*layout.Partition, _ bool) (layout.Layout, error) {
		return lfsOn(k, 0, parts[0]), nil
	}},
	{name: "ffs", width: 1, build: func(k sched.Kernel, parts []*layout.Partition, _ bool) (layout.Layout, error) {
		return ffs.New(k, "d0", parts[0], ffs.Config{BlocksPerGroup: 512, InodesPerGroup: 64}), nil
	}},
	{name: "array-width1", width: 1, pending: true, build: arrayOf(volume.PlacementAffinity)},
	{name: "array-striped", width: 3, chunked: true, build: arrayOf(volume.PlacementStriped)},
	{name: "array-parity", width: 3, chunked: true, build: arrayOf(volume.PlacementParity)},
}

// runCases read file A, which the workload lays out as: blocks 0..9
// written in one batch, then (after another file's batch) blocks
// 10..15, block 16 a hole, block 17 written alone.
var runCases = []struct {
	name        string
	cap         int
	blk         core.BlockNo
	n, nbufs    int
	want        int // rigs that never split a run
	wantChunked int // striped and parity rigs
}{
	{"cluster cap", 2, 0, 16, 16, 2, 2},
	{"stripe-chunk boundary", 8, 1, 8, 8, 8, 3},
	{"len(bufs)", 8, 0, 8, 3, 3, 3},
	{"address discontinuity", 8, 8, 8, 8, 2, 2},
	{"hole", 8, 16, 4, 4, 1, 1},
}

func pattern(file, blk int) []byte {
	buf := make([]byte, core.BlockSize)
	for i := range buf {
		buf[i] = byte(file*89 + blk*131 + i*7 + 3)
	}
	return buf
}

func TestReadRunContract(t *testing.T) {
	for _, rg := range rigs {
		t.Run(rg.name, func(t *testing.T) {
			moved := rg.exercise(t, false)
			simulated := rg.exercise(t, true)
			if !slices.Equal(moved, simulated) {
				t.Fatalf("run lengths differ: real partitions %v, simulated %v", moved, simulated)
			}
		})
	}
}

// exercise builds the rig, lays out the files and reads every case,
// returning the run lengths in case order.
func (rg rig) exercise(t *testing.T, sim bool) []int {
	k := sched.NewVirtual(7)
	taps := make([]*tapDrv, rg.width)
	parts := make([]*layout.Partition, rg.width)
	for i := range parts {
		var drv device.Driver = nullDrv{}
		if !sim {
			drv = device.NewMemDriver(k, fmt.Sprintf("mem%d", i), rigBlocks, nil)
		}
		taps[i] = &tapDrv{Driver: drv}
		parts[i] = layout.NewPartition(taps[i], i, 0, rigBlocks, sim)
	}
	lay, err := rg.build(k, parts, sim)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	reads := func() (n int) {
		for _, d := range taps {
			n += d.reads
		}
		return n
	}
	// batch builds the writes of blocks [from, from+n) of file.
	batch := func(file, from, n int) []layout.BlockWrite {
		ws := make([]layout.BlockWrite, n)
		for i := range ws {
			ws[i] = layout.BlockWrite{Blk: core.BlockNo(from + i), Size: core.BlockSize}
			if !sim {
				ws[i].Data = pattern(file, from+i)
			}
		}
		return ws
	}
	// frames hands out n poisoned buffers (none when simulated).
	frames := func(n int) [][]byte {
		if sim {
			return nil
		}
		bufs := make([][]byte, n)
		for i := range bufs {
			bufs[i] = bytes.Repeat([]byte{0xFF}, core.BlockSize)
		}
		return bufs
	}

	var lens []int
	k.Go("test", func(tk sched.Task) {
		defer k.Stop()
		must := func(what string, err error) {
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		}
		must("Format", lay.Format(tk))
		must("Mount", lay.Mount(tk))
		_, err := lay.AllocInode(tk, core.TypeDirectory) // the root
		must("AllocInode root", err)
		a, err := lay.AllocInode(tk, core.TypeRegular)
		must("AllocInode a", err)
		b, err := lay.AllocInode(tk, core.TypeRegular)
		must("AllocInode b", err)
		must("write a[0..9]", lay.WriteBlocks(tk, a, batch(1, 0, 10)))
		must("write b[0..11]", lay.WriteBlocks(tk, b, batch(2, 0, 12))) // lands on every member
		must("write a[10..15]", lay.WriteBlocks(tk, a, batch(1, 10, 6)))
		must("write a[17]", lay.WriteBlocks(tk, a, batch(1, 17, 1)))
		a.Size, b.Size = 18*core.BlockSize, 12*core.BlockSize
		must("UpdateInode a", lay.UpdateInode(tk, a))
		must("UpdateInode b", lay.UpdateInode(tk, b))
		must("Sync", lay.Sync(tk))

		for _, c := range runCases {
			want := c.want
			if rg.chunked {
				want = c.wantChunked
			}
			lay.SetClusterRun(c.cap)
			bufs := frames(c.nbufs)
			n := c.n
			if sim {
				// No buffers bound the run: callers ask for as many
				// blocks as they have frames.
				n = min(n, c.nbufs)
			}
			before := reads()
			got, err := lay.ReadRunVec(tk, a, c.blk, n, bufs)
			if err != nil || got != want {
				t.Fatalf("%s: ReadRunVec(blk %d, n %d, %d bufs) = %d, %v; want %d", c.name, c.blk, c.n, c.nbufs, got, err, want)
			}
			lens = append(lens, got)
			if sim {
				continue
			}
			if c.name == "hole" {
				if n := reads() - before; n != 0 {
					t.Fatalf("hole: %d device reads, want none", n)
				}
				if !bytes.Equal(bufs[0], make([]byte, core.BlockSize)) {
					t.Fatal("hole did not read as one zeroed block")
				}
				continue
			}
			if n := reads() - before; n != 1 {
				t.Fatalf("%s: run of %d blocks took %d device requests, want 1", c.name, got, n)
			}
			for i := 0; i < got; i++ {
				if !bytes.Equal(bufs[i], pattern(1, int(c.blk)+i)) {
					t.Fatalf("%s: block %d of the run is corrupt", c.name, i)
				}
			}
		}
		if sim {
			return
		}

		// No buffer to scatter into on a partition that moves bytes.
		if got, err := lay.ReadRunVec(tk, a, 0, 4, [][]byte{}); !errors.Is(err, core.ErrInval) {
			t.Fatalf("empty bufs: ReadRunVec = %d, %v; want core.ErrInval", got, err)
		}

		if !rg.pending {
			return
		}
		// A write-through the device refuses leaves the block staged in
		// the log's pending map; the read is served from there.
		for _, d := range taps {
			d.failWrites = true
		}
		if err := lay.WriteBlocks(tk, a, batch(1, 20, 1)); err == nil {
			t.Fatal("WriteBlocks succeeded on a device refusing writes")
		}
		for _, d := range taps {
			d.failWrites = false
		}
		bufs := frames(4)
		before := reads()
		got, err := lay.ReadRunVec(tk, a, 20, 4, bufs)
		if err != nil || got != 1 {
			t.Fatalf("pending: ReadRunVec = %d, %v; want 1 from memory", got, err)
		}
		if n := reads() - before; n != 0 {
			t.Fatalf("pending: read went to the device (%d requests)", n)
		}
		if !bytes.Equal(bufs[0], pattern(1, 20)) {
			t.Fatal("pending: block served from memory is corrupt")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return lens
}
