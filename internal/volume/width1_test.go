package volume

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/layout"
	"repro/internal/lfs"
	"repro/internal/sched"
)

// fixtureBlock is block b of file id in testdata/width1.img.gz.
func fixtureBlock(id core.FileID, b int64) []byte {
	return pattern(core.BlockNo(int64(id)*1000+b), core.BlockSize)
}

// TestWidth1ImageRecovers loads testdata/width1.img.gz, a real-mode
// width-1 array written by the code that still short-circuited a
// one-member array into its member. It is a 512-block LFS of 16-block
// segments under New(k, "arr", {lfs "d0"}, Config{Placement:
// PlacementStriped}): Format, Mount, the root directory (inode 2),
// then regular files 3, 4 and 5 of 5 blocks + 1234 bytes, 100 bytes
// and 12 blocks (block b of file id is pattern(id*1000+b)), each
// written with one WriteBlocks, sized with GrowSize and UpdateInode, then one Sync and
// the device image dumped. Recover through the executor must serve
// every byte, and the inode after the root — a wider array's label —
// must be the first user file: a one-member array has no label.
func TestWidth1ImageRecovers(t *testing.T) {
	f, err := os.Open("testdata/width1.img.gz")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	img, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	blocks := int64(len(img) / core.BlockSize)
	k := sched.NewVirtual(1)
	drv := device.NewMemDriver(k, "mem0", blocks, nil)
	sub := lfs.New(k, "d0", layout.NewPartition(drv, 0, 0, blocks, false), lfs.Config{SegBlocks: 16})
	arr, err := New(k, "arr", []layout.Layout{sub}, Config{Placement: PlacementStriped})
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[core.FileID]int64{labelFileID: 5*core.BlockSize + 1234, labelFileID + 1: 100, labelFileID + 2: 12 * core.BlockSize}
	runK(t, k, func(tk sched.Task) { err = checkWidth1Image(tk, drv, sub, arr, img, sizes) })
	if err != nil {
		t.Fatal(err)
	}
}

// checkWidth1Image loads img onto drv, recovers arr over it and reads
// every file of sizes back.
func checkWidth1Image(tk sched.Task, drv device.Driver, sub layout.Layout, arr *Array, img []byte, sizes map[core.FileID]int64) error {
	if err := drv.Do(tk, &device.Request{Op: device.OpWrite, Blocks: len(img) / core.BlockSize, Data: img}); err != nil {
		return fmt.Errorf("load image: %w", err)
	}
	if _, err := arr.Recover(tk); err != nil {
		return fmt.Errorf("Recover: %w", err)
	}
	if _, found, err := ReadLabel(tk, sub); found || err != nil {
		return fmt.Errorf("ReadLabel: found %v, err %v; want a user file in the label's slot", found, err)
	}
	buf := make([]byte, core.BlockSize)
	for id := core.FileID(labelFileID); id < labelFileID+3; id++ {
		ino, err := arr.GetInode(tk, id)
		if err != nil {
			return fmt.Errorf("GetInode(%d): %w", id, err)
		}
		if ino.Type != core.TypeRegular || ino.Size != sizes[id] {
			return fmt.Errorf("inode %d: type %v size %d, want a regular file of %d bytes", id, ino.Type, ino.Size, sizes[id])
		}
		for b := int64(0); b < layout.BlocksForSize(ino.Size); b++ {
			if err := readOne(tk, arr, ino, core.BlockNo(b), buf); err != nil {
				return fmt.Errorf("inode %d block %d: %w", id, b, err)
			}
			n := min(core.BlockSize, ino.Size-b*core.BlockSize)
			if !bytes.Equal(buf[:n], fixtureBlock(id, b)[:n]) {
				return fmt.Errorf("inode %d block %d: read-back mismatch", id, b)
			}
		}
	}
	// The member's allocator goes on where the image left it.
	ino, err := arr.AllocInode(tk, core.TypeRegular)
	if err != nil {
		return fmt.Errorf("AllocInode: %w", err)
	}
	if ino.ID != labelFileID+3 {
		return fmt.Errorf("next inode %d, want %d", ino.ID, labelFileID+3)
	}
	return nil
}

// TestPlanAllocatesNothing gates the executor's bookkeeping: once a
// lent batch is warm, planning a write and dispatching it through fan
// allocates nothing for affinity, striped and mirrored arrays, and
// only the parity block for a parity one (a full column: no reads).
func TestPlanAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops lent batches")
	}
	one := []core.BlockNo{5}
	sixteen := make([]core.BlockNo, 16)
	for i := range sixteen {
		sixteen[i] = core.BlockNo(i)
	}
	for _, c := range []struct {
		width int
		cfg   Config
		blks  []core.BlockNo
	}{
		{1, Config{Placement: PlacementStriped}, one},
		{1, Config{Placement: PlacementStriped}, sixteen},
		{3, Config{Placement: PlacementAffinity}, sixteen},
		{3, Config{Placement: PlacementStriped, StripeBlocks: 4}, sixteen},
		{3, Config{Placement: PlacementMirrored, StripeBlocks: 4}, sixteen},
		// The parity block comes from the batch's lent accumulators.
		{3, Config{Placement: PlacementParity, StripeBlocks: 4}, []core.BlockNo{1, 5}},
	} {
		t.Run(fmt.Sprintf("%s/%dx%d", c.cfg.Placement, c.width, len(c.blks)), func(t *testing.T) {
			k := sched.NewVirtual(1)
			_, arr := buildArray(t, k, nil, c.width, c.cfg)
			var n float64
			var err error
			runK(t, k, func(tk sched.Task) { n, err = planAllocs(tk, arr, c.blks) })
			if err != nil {
				t.Fatal(err)
			}
			if n != 0 {
				t.Fatalf("plan + fan: %v allocs per write, want 0", n)
			}
		})
	}
}

// TestShadowPeeksAllocateNothing gates the reads of a member's shadow
// under its leaf lock on the real kernel: mirroring an unchanged size
// onto the carriers and the hole probe allocate nothing.
func TestShadowPeeksAllocateNothing(t *testing.T) {
	k := sched.NewReal(1)
	_, arr := buildArray(t, k, nil, 3, Config{Placement: PlacementMirrored, StripeBlocks: 4})
	runK(t, k, func(tk sched.Task) {
		if _, err := planAllocs(tk, arr, []core.BlockNo{5}); err != nil {
			t.Error(err)
			return
		}
		af := arr.lookup(tk, 2)
		if af == nil {
			t.Error("file 2 not in the array's table")
			return
		}
		var err error
		n := testing.AllocsPerRun(100, func() {
			af.mu.Lock(tk)
			err = arr.mirrorSizes(tk, af)
			af.mu.Unlock(tk)
		})
		if err != nil || n != 0 {
			t.Errorf("mirrorSizes: %v allocs per call (%v), want 0", n, err)
		}
		c := arr.pl.dataCell(af.home, 3)
		if n := testing.AllocsPerRun(100, func() { af.hole(c) }); n != 0 {
			t.Errorf("hole: %v allocs per call, want 0", n)
		}
	})
}

// TestFileCycleAllocatesLikeMember gates the array's file table: an
// affinity file's per-file state is derived on each call, not
// recorded, so creating, looking up and freeing a file through a
// simulated one-member array allocates no more than the same cycle on
// the bare member.
func TestFileCycleAllocatesLikeMember(t *testing.T) {
	k := sched.NewVirtual(1)
	member := func(name string) layout.Layout {
		part := layout.NewPartition(nullDrv{}, 0, 0, rigBlocks, true)
		return lfs.New(k, name, part, lfs.Config{SegBlocks: 32})
	}
	arr, err := New(k, "arr", []layout.Layout{member("d0")}, Config{Simulated: true})
	if err != nil {
		t.Fatal(err)
	}
	bare := member("bare")
	var viaArray, viaMember float64
	runK(t, k, func(tk sched.Task) {
		cycle := func(l interface {
			Format(sched.Task) error
			Mount(sched.Task) error
			AllocInode(sched.Task, core.FileType) (*layout.Inode, error)
			GetInode(sched.Task, core.FileID) (*layout.Inode, error)
			FreeInode(sched.Task, core.FileID) error
		}) float64 {
			err := l.Format(tk)
			if err == nil {
				err = l.Mount(tk)
			}
			n := testing.AllocsPerRun(200, func() {
				var ino *layout.Inode
				if err == nil {
					ino, err = l.AllocInode(tk, core.TypeRegular)
				}
				if err == nil {
					_, err = l.GetInode(tk, ino.ID)
				}
				if err == nil {
					err = l.FreeInode(tk, ino.ID)
				}
			})
			if err != nil {
				t.Error(err)
			}
			return n
		}
		viaArray, viaMember = cycle(arr), cycle(bare)
	})
	if viaArray > viaMember {
		t.Fatalf("alloc + get + free: %v allocs through the array, %v on the bare member", viaArray, viaMember)
	}
}

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

// planAllocs writes a 16-block file on arr, then measures the
// allocations of planning and dispatching a rewrite of blks.
func planAllocs(tk sched.Task, arr *Array, blks []core.BlockNo) (float64, error) {
	if err := arr.Format(tk); err != nil {
		return 0, err
	}
	if err := arr.Mount(tk); err != nil {
		return 0, err
	}
	if _, err := arr.AllocInode(tk, core.TypeDirectory); err != nil {
		return 0, err
	}
	ino, err := arr.AllocInode(tk, core.TypeRegular)
	if err != nil {
		return 0, err
	}
	ws := make([]layout.BlockWrite, 16)
	for i := range ws {
		ws[i] = layout.BlockWrite{Blk: core.BlockNo(i), Data: pattern(core.BlockNo(i), core.BlockSize), Size: core.BlockSize}
	}
	arr.GrowSize(tk, ino, 16*core.BlockSize)
	if err := arr.WriteBlocks(tk, ino, ws); err != nil {
		return 0, err
	}
	ws = ws[:0]
	for _, blk := range blks {
		ws = append(ws, layout.BlockWrite{Blk: blk, Data: pattern(blk, core.BlockSize), Size: core.BlockSize})
	}
	var dispatched atomic.Int64 // the real kernel runs the legs concurrently
	count := func(sched.Task, int) error { dispatched.Add(1); return nil }
	n := testing.AllocsPerRun(100, func() {
		b := batches.Get().(*batch)
		b.t, b.a, b.af, b.writes, b.dead = tk, arr, arr.file(tk, ino, &b.file), ws, -1
		if err == nil {
			err = b.plan()
		}
		if err == nil {
			err = arr.fan(tk, b.on, count)
		}
		b.release()
	})
	if err == nil && dispatched.Load() == 0 {
		err = fmt.Errorf("fan dispatched no member write")
	}
	return n, err
}

// TestXorIntoMatchesByteLoop checks xorInto against a byte loop at odd
// lengths and a whole block, and that a nil operand leaves the other
// untouched (simulated stacks).
func TestXorIntoMatchesByteLoop(t *testing.T) {
	for _, n := range []int{1, 3, 7, 15, 17, 63, 1001, core.BlockSize - 1, core.BlockSize} {
		acc, b := pattern(1, n), pattern(2, n+5)
		want := append([]byte(nil), acc...)
		for i := range want {
			want[i] ^= b[i]
		}
		xorInto(acc, b)
		if !bytes.Equal(acc, want) {
			t.Fatalf("length %d: xorInto differs from the byte loop", n)
		}
	}
	acc := pattern(3, 64)
	want := append([]byte(nil), acc...)
	xorInto(acc, nil)
	xorInto(nil, acc)
	if !bytes.Equal(acc, want) {
		t.Fatal("a nil operand changed the accumulator")
	}
}
