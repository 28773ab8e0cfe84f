package volume

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/layout"
	"repro/internal/lfs"
	"repro/internal/sched"
)

// rig is a real-mode array over RAM-backed drivers: real data
// movement, remountable within the process.
type rig struct {
	k    *sched.RKernel
	drvs []device.Driver
	arr  *Array
}

const rigBlocks = 2048

// newRig builds width drivers and an array of fresh LFS layouts over
// them. Passing the drivers of an earlier rig remounts its disks.
func newRig(t *testing.T, k *sched.RKernel, drvs []device.Driver, width int, cfg Config) *rig {
	t.Helper()
	if drvs == nil {
		for i := 0; i < width; i++ {
			drvs = append(drvs, device.NewMemDriver(k, fmt.Sprintf("mem%d", i), rigBlocks, nil))
		}
	}
	subs := make([]layout.Layout, width)
	for i := 0; i < width; i++ {
		part := layout.NewPartition(drvs[i], i, 0, rigBlocks, false)
		subs[i] = lfs.New(k, fmt.Sprintf("d%d", i), part, lfs.Config{SegBlocks: 32})
	}
	arr, err := New(k, "arr", subs, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return &rig{k: k, drvs: drvs, arr: arr}
}

// do runs fn on a kernel task and waits.
func (r *rig) do(t *testing.T, fn func(tk sched.Task) error) {
	t.Helper()
	errc := make(chan error, 1)
	r.k.Go("test", func(tk sched.Task) { errc <- fn(tk) })
	if err := <-errc; err != nil {
		t.Fatalf("task: %v", err)
	}
}

// pattern fills a deterministic byte pattern for file block b.
func pattern(b core.BlockNo, n int) []byte {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte(int(b)*131 + i*7 + 3)
	}
	return buf
}

// writeFile formats blocks..partial bytes of data into a fresh
// inode through the array and returns it.
func writeFile(t *testing.T, tk sched.Task, arr *Array, nblocks int, lastBytes int) (*layout.Inode, int64) {
	t.Helper()
	ino, err := arr.AllocInode(tk, core.TypeRegular)
	if err != nil {
		t.Fatalf("AllocInode: %v", err)
	}
	size := int64(nblocks-1)*core.BlockSize + int64(lastBytes)
	var writes []layout.BlockWrite
	for b := 0; b < nblocks; b++ {
		n := core.BlockSize
		if b == nblocks-1 {
			n = lastBytes
		}
		writes = append(writes, layout.BlockWrite{Blk: core.BlockNo(b), Data: pattern(core.BlockNo(b), core.BlockSize), Size: n})
	}
	if err := arr.WriteBlocks(tk, ino, writes); err != nil {
		t.Fatalf("WriteBlocks: %v", err)
	}
	ino.Size = size // the front-end grows sizes as it writes
	if err := arr.UpdateInode(tk, ino); err != nil {
		t.Fatalf("UpdateInode: %v", err)
	}
	return ino, size
}

func checkFile(t *testing.T, tk sched.Task, arr *Array, ino *layout.Inode, nblocks int) {
	t.Helper()
	buf := make([]byte, core.BlockSize)
	for b := 0; b < nblocks; b++ {
		if err := readOne(tk, arr, ino, core.BlockNo(b), buf); err != nil {
			t.Fatalf("read block %d: %v", b, err)
		}
		if !bytes.Equal(buf, pattern(core.BlockNo(b), core.BlockSize)) {
			t.Fatalf("block %d: read-back mismatch", b)
		}
	}
}

// TestStripedWriteReadRemount writes a striped file across a 3-wide
// real array, syncs, remounts fresh layouts over the same disks, and
// checks bytes and the global size both survive.
func TestStripedWriteReadRemount(t *testing.T) {
	k := sched.NewReal(1)
	cfg := Config{Placement: PlacementStriped, StripeBlocks: 4}
	r := newRig(t, k, nil, 3, cfg)
	var id core.FileID
	var size int64
	const nblocks = 37
	r.do(t, func(tk sched.Task) error {
		if err := r.arr.Format(tk); err != nil {
			return err
		}
		if err := r.arr.Mount(tk); err != nil {
			return err
		}
		// fsys would allocate the root first; model that.
		root, err := r.arr.AllocInode(tk, core.TypeDirectory)
		if err != nil {
			return err
		}
		if root.ID != core.RootFile {
			return fmt.Errorf("root allocated as %d", root.ID)
		}
		ino, sz := writeFile(t, tk, r.arr, nblocks, 1234)
		id, size = ino.ID, sz
		checkFile(t, tk, r.arr, ino, nblocks-1)
		return r.arr.Sync(tk)
	})

	// Every sub-volume must hold a share: the file spans > n*w blocks.
	_, wr := r.arr.RoutedBlocks()
	for i, w := range wr {
		if w == 0 {
			t.Fatalf("sub %d received no writes: %v", i, wr)
		}
	}

	// Remount: fresh layouts + array over the same memory disks.
	r2 := newRig(t, k, r.drvs, 3, cfg)
	r2.do(t, func(tk sched.Task) error {
		if err := r2.arr.Mount(tk); err != nil {
			return err
		}
		ino, err := r2.arr.GetInode(tk, id)
		if err != nil {
			return err
		}
		if ino.Size != size {
			return fmt.Errorf("size after remount: %d, want %d", ino.Size, size)
		}
		checkFile(t, tk, r2.arr, ino, nblocks-1)
		// The partial last block must carry its bytes too.
		buf := make([]byte, core.BlockSize)
		if err := readOne(tk, r2.arr, ino, core.BlockNo(nblocks-1), buf); err != nil {
			return err
		}
		if !bytes.Equal(buf[:1234], pattern(core.BlockNo(nblocks-1), 1234)) {
			return fmt.Errorf("partial last block mismatch after remount")
		}
		return nil
	})
}

// TestStripedLargeFileRemount covers the double-indirect decode
// path: a file whose per-member share exceeds the direct +
// single-indirect span (524 blocks), remounted and read back. The
// home shadow persists the array-global size, so its decode walks
// further than its local map — the nil-leaf cut-off in the layouts
// must end the tree instead of chasing phantom addresses.
func TestStripedLargeFileRemount(t *testing.T) {
	k := sched.NewReal(1)
	cfg := Config{Placement: PlacementStriped, StripeBlocks: 4}
	r := newRig(t, k, nil, 2, cfg)
	const nblocks = 1200 // 600 per member > 524
	var id core.FileID
	var size int64
	r.do(t, func(tk sched.Task) error {
		if err := r.arr.Format(tk); err != nil {
			return err
		}
		if err := r.arr.Mount(tk); err != nil {
			return err
		}
		if _, err := r.arr.AllocInode(tk, core.TypeDirectory); err != nil {
			return err
		}
		ino, sz := writeFile(t, tk, r.arr, nblocks, 100)
		id, size = ino.ID, sz
		return r.arr.Sync(tk)
	})
	r2 := newRig(t, k, r.drvs, 2, cfg)
	r2.do(t, func(tk sched.Task) error {
		if err := r2.arr.Mount(tk); err != nil {
			return err
		}
		ino, err := r2.arr.GetInode(tk, id)
		if err != nil {
			return err
		}
		if ino.Size != size {
			return fmt.Errorf("size after remount: %d, want %d", ino.Size, size)
		}
		checkFile(t, tk, r2.arr, ino, nblocks-1)
		return nil
	})
}

// TestConcurrentWritesAndSync races cache-flush-style writes against
// array syncs on the real kernel; with -race it certifies the shadow
// size updates are properly locked.
func TestConcurrentWritesAndSync(t *testing.T) {
	k := sched.NewReal(1)
	r := newRig(t, k, nil, 3, Config{Placement: PlacementStriped, StripeBlocks: 2})
	var inos []*layout.Inode
	r.do(t, func(tk sched.Task) error {
		if err := r.arr.Format(tk); err != nil {
			return err
		}
		if err := r.arr.Mount(tk); err != nil {
			return err
		}
		if _, err := r.arr.AllocInode(tk, core.TypeDirectory); err != nil {
			return err
		}
		for i := 0; i < 4; i++ {
			ino, err := r.arr.AllocInode(tk, core.TypeRegular)
			if err != nil {
				return err
			}
			inos = append(inos, ino)
		}
		return nil
	})
	errc := make(chan error, 2)
	k.Go("writer", func(tk sched.Task) {
		errc <- func() error {
			for round := 0; round < 20; round++ {
				for fi, ino := range inos {
					var ws []layout.BlockWrite
					for b := 0; b < 6; b++ {
						blk := core.BlockNo(round*6 + b)
						ws = append(ws, layout.BlockWrite{Blk: blk, Data: pattern(blk, core.BlockSize), Size: core.BlockSize})
					}
					if err := r.arr.WriteBlocks(tk, ino, ws); err != nil {
						return fmt.Errorf("file %d round %d: %w", fi, round, err)
					}
					ino.Size = int64(round*6+6) * core.BlockSize
				}
			}
			return nil
		}()
	})
	k.Go("syncer", func(tk sched.Task) {
		errc <- func() error {
			for i := 0; i < 10; i++ {
				if err := r.arr.Sync(tk); err != nil {
					return fmt.Errorf("sync %d: %w", i, err)
				}
			}
			return nil
		}()
	})
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

// TestGeometryMismatchRejected formats a 3-wide striped array and
// checks that remounting its members under a different width,
// placement or stripe fails via the label.
func TestGeometryMismatchRejected(t *testing.T) {
	k := sched.NewReal(1)
	cfg := Config{Placement: PlacementStriped, StripeBlocks: 4}
	r := newRig(t, k, nil, 3, cfg)
	r.do(t, func(tk sched.Task) error {
		if err := r.arr.Format(tk); err != nil {
			return err
		}
		if err := r.arr.Mount(tk); err != nil {
			return err
		}
		if _, err := r.arr.AllocInode(tk, core.TypeDirectory); err != nil {
			return err
		}
		return r.arr.Sync(tk)
	})
	for _, bad := range []Config{
		{Placement: PlacementStriped, StripeBlocks: 8},
		{Placement: PlacementAffinity},
	} {
		r2 := newRig(t, k, r.drvs, 3, bad)
		errc := make(chan error, 1)
		k.Go("mount", func(tk sched.Task) { errc <- r2.arr.Mount(tk) })
		if err := <-errc; err == nil {
			t.Fatalf("mount with %+v accepted a striped/4 image set", bad)
		}
	}
	// Wrong width: only the first 2 members.
	r3 := newRig(t, k, r.drvs[:2], 2, cfg)
	errc := make(chan error, 1)
	k.Go("mount", func(tk sched.Task) { errc <- r3.arr.Mount(tk) })
	if err := <-errc; err == nil {
		t.Fatal("2-wide mount accepted a 3-wide image set")
	}
}

// TestAffinityPlacement checks affinity mode keeps each file whole
// on one sub-volume while spreading distinct files around, and that
// lockstep keeps inode IDs unique.
func TestAffinityPlacement(t *testing.T) {
	k := sched.NewReal(1)
	r := newRig(t, k, nil, 4, Config{Placement: PlacementAffinity})
	r.do(t, func(tk sched.Task) error {
		if err := r.arr.Format(tk); err != nil {
			return err
		}
		if err := r.arr.Mount(tk); err != nil {
			return err
		}
		seen := map[core.FileID]bool{}
		homes := map[int]bool{}
		for i := 0; i < 16; i++ {
			ino, err := r.arr.AllocInode(tk, core.TypeRegular)
			if err != nil {
				return err
			}
			if seen[ino.ID] {
				return fmt.Errorf("duplicate inode id %d", ino.ID)
			}
			seen[ino.ID] = true
			wrBefore := append([]int64(nil), mustWrites(r.arr)...)
			if err := r.arr.WriteBlocks(tk, ino, []layout.BlockWrite{
				{Blk: 0, Data: pattern(0, core.BlockSize), Size: core.BlockSize},
				{Blk: 1, Data: pattern(1, core.BlockSize), Size: core.BlockSize},
			}); err != nil {
				return err
			}
			wrAfter := mustWrites(r.arr)
			touched := -1
			for s := range wrAfter {
				if wrAfter[s] != wrBefore[s] {
					if touched >= 0 {
						return fmt.Errorf("file %d spread over subs %d and %d in affinity mode", ino.ID, touched, s)
					}
					touched = s
				}
			}
			homes[touched] = true
		}
		if len(homes) < 2 {
			return fmt.Errorf("all 16 files landed on one sub-volume: %v", homes)
		}
		return nil
	})
}

func mustWrites(a *Array) []int64 {
	_, w := a.RoutedBlocks()
	return w
}

// TestTruncateStriped shrinks a striped file and checks reads past
// the boundary are holes while earlier blocks survive, after a
// remount.
func TestTruncateStriped(t *testing.T) {
	k := sched.NewReal(1)
	cfg := Config{Placement: PlacementStriped, StripeBlocks: 2}
	r := newRig(t, k, nil, 2, cfg)
	var id core.FileID
	const keep = 5
	r.do(t, func(tk sched.Task) error {
		if err := r.arr.Format(tk); err != nil {
			return err
		}
		if err := r.arr.Mount(tk); err != nil {
			return err
		}
		if _, err := r.arr.AllocInode(tk, core.TypeDirectory); err != nil {
			return err
		}
		ino, _ := writeFile(t, tk, r.arr, 16, core.BlockSize)
		id = ino.ID
		if err := r.arr.Truncate(tk, ino, keep*core.BlockSize); err != nil {
			return err
		}
		if err := r.arr.UpdateInode(tk, ino); err != nil {
			return err
		}
		if ino.Size != keep*core.BlockSize {
			return fmt.Errorf("size after truncate: %d", ino.Size)
		}
		return r.arr.Sync(tk)
	})
	r2 := newRig(t, k, r.drvs, 2, cfg)
	r2.do(t, func(tk sched.Task) error {
		if err := r2.arr.Mount(tk); err != nil {
			return err
		}
		ino, err := r2.arr.GetInode(tk, id)
		if err != nil {
			return err
		}
		if ino.Size != keep*core.BlockSize {
			return fmt.Errorf("size after remount: %d, want %d", ino.Size, keep*core.BlockSize)
		}
		checkFile(t, tk, r2.arr, ino, keep)
		buf := make([]byte, core.BlockSize)
		if err := readOne(tk, r2.arr, ino, keep, buf); err != nil {
			return err
		}
		for i, b := range buf {
			if b != 0 {
				return fmt.Errorf("truncated block not a hole at byte %d", i)
			}
		}
		return nil
	})
}

// TestFreeInodeLockstep allocates, frees, and re-allocates across
// the array, checking the sub-volumes stay in lockstep and freed
// files really vanish.
func TestFreeInodeLockstep(t *testing.T) {
	k := sched.NewReal(1)
	r := newRig(t, k, nil, 3, Config{Placement: PlacementStriped, StripeBlocks: 2})
	r.do(t, func(tk sched.Task) error {
		if err := r.arr.Format(tk); err != nil {
			return err
		}
		if err := r.arr.Mount(tk); err != nil {
			return err
		}
		if _, err := r.arr.AllocInode(tk, core.TypeDirectory); err != nil {
			return err
		}
		a, _ := writeFile(t, tk, r.arr, 7, core.BlockSize)
		b, _ := writeFile(t, tk, r.arr, 7, core.BlockSize)
		if a.ID == b.ID {
			return fmt.Errorf("duplicate ids")
		}
		if err := r.arr.FreeInode(tk, a.ID); err != nil {
			return err
		}
		if _, err := r.arr.GetInode(tk, a.ID); err != core.ErrNotFound {
			return fmt.Errorf("freed inode still reachable: %v", err)
		}
		c, err := r.arr.AllocInode(tk, core.TypeRegular)
		if err != nil {
			return err
		}
		if c.ID == b.ID {
			return fmt.Errorf("reused live id %d", b.ID)
		}
		return r.arr.Sync(tk)
	})
}

// TestWidth1Passthrough checks a one-member array is transparent:
// same name, and inode numbers identical to driving
// the sub-layout directly (no label file is interposed), while its
// routed-block counts are real.
func TestWidth1Passthrough(t *testing.T) {
	k := sched.NewReal(1)
	build := func() (layout.Layout, *Array) {
		drv := device.NewMemDriver(k, "solo", rigBlocks, nil)
		part := layout.NewPartition(drv, 0, 0, rigBlocks, false)
		sub := lfs.New(k, "solo", part, lfs.Config{SegBlocks: 32})
		arr, err := New(k, "solo-arr", []layout.Layout{sub}, Config{Placement: PlacementStriped})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return sub, arr
	}
	sub, arr := build()
	if arr.Name() != sub.Name() {
		t.Fatalf("width-1 array name %q, sub %q", arr.Name(), sub.Name())
	}
	direct, _ := build()
	errc := make(chan error, 1)
	k.Go("t", func(tk sched.Task) {
		errc <- func() error {
			for _, l := range []interface {
				Format(sched.Task) error
				Mount(sched.Task) error
			}{arr, direct} {
				if err := l.Format(tk); err != nil {
					return err
				}
				if err := l.Mount(tk); err != nil {
					return err
				}
			}
			// The same alloc sequence must yield the same IDs: no
			// hidden label file at width 1.
			for i := 0; i < 5; i++ {
				typ := core.TypeRegular
				if i == 0 {
					typ = core.TypeDirectory
				}
				a, err := arr.AllocInode(tk, typ)
				if err != nil {
					return err
				}
				d, err := direct.AllocInode(tk, typ)
				if err != nil {
					return err
				}
				if a.ID != d.ID {
					return fmt.Errorf("alloc %d: array id %d, direct id %d", i, a.ID, d.ID)
				}
			}
			// The one member's routed blocks are counted like any
			// member's.
			ino, _ := writeFile(t, tk, arr, 3, core.BlockSize)
			checkFile(t, tk, arr, ino, 2)
			if rd, wr := arr.RoutedBlocks(); len(rd) != 1 || rd[0] != 2 || len(wr) != 1 || wr[0] != 3 {
				return fmt.Errorf("RoutedBlocks: reads %v writes %v, want [2] [3]", rd, wr)
			}
			return nil
		}()
	})
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// TestStatsGroups checks the array-level merged counters render the
// per-volume split.
func TestStatsGroups(t *testing.T) {
	k := sched.NewReal(1)
	r := newRig(t, k, nil, 2, Config{Placement: PlacementStriped, StripeBlocks: 1})
	r.do(t, func(tk sched.Task) error {
		if err := r.arr.Format(tk); err != nil {
			return err
		}
		if err := r.arr.Mount(tk); err != nil {
			return err
		}
		if _, err := r.arr.AllocInode(tk, core.TypeDirectory); err != nil {
			return err
		}
		ino, _ := writeFile(t, tk, r.arr, 4, core.BlockSize)
		checkFile(t, tk, r.arr, ino, 4)
		return nil
	})
	rd, wr := r.arr.RoutedBlocks()
	if len(rd) != 2 || len(wr) != 2 {
		t.Fatalf("RoutedBlocks arity: %v %v", rd, wr)
	}
	if wr[0] != 2 || wr[1] != 2 {
		t.Fatalf("stripe-1 writes of 4 blocks should split 2/2, got %v", wr)
	}
	if rd[0] != 2 || rd[1] != 2 {
		t.Fatalf("reads should split 2/2, got %v", rd)
	}
	if out := r.arr.WriteGroup().String(); out != "arr.array_blocks_written: total=4 (d0=2 d1=2)" {
		t.Fatalf("merged counter line = %q", out)
	}
}
