package volume

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/disk"
	"repro/internal/ffs"
	"repro/internal/layout"
	"repro/internal/sched"
)

// TestFanOverlapsMembersOnVirtualKernel gates the array's fan on the
// simulator: the members are independent disk stacks, so a striped
// write whose three legs each cost the same disk work, on a bus and
// drive of its own, must take under twice one leg's simulated time.
// Serving the legs one after another takes three times as long. A leg
// is an in-place FFS overwrite of one block: the block's write, then
// the inode's.
func TestFanOverlapsMembersOnVirtualKernel(t *testing.T) {
	const width, blocks = 3, 4096
	k := sched.NewVirtual(1)
	subs := make([]layout.Layout, width)
	drvs := make([]device.Driver, width)
	for i := range subs {
		b := bus.New(k, bus.SCSI2(fmt.Sprintf("bus%d", i)))
		dsk := disk.New(k, disk.Naive(fmt.Sprintf("disk%d", i), 10*time.Millisecond), b)
		dsk.Start()
		drvs[i] = device.NewSimDriver(k, fmt.Sprintf("drv%d", i), dsk, b, nil)
		part := layout.NewPartition(drvs[i], i, 0, blocks, true)
		subs[i] = ffs.New(k, fmt.Sprintf("d%d", i), part, ffs.Config{BlocksPerGroup: 1024, InodesPerGroup: 64})
	}
	arr, err := New(k, "arr", subs, Config{Placement: PlacementStriped, StripeBlocks: 1, Simulated: true})
	if err != nil {
		t.Fatal(err)
	}
	var one, three time.Duration
	runK(t, k, func(tk sched.Task) {
		// write overwrites blocks 0..n-1 of ino, one per member, and
		// returns the simulated time it took.
		write := func(ino *layout.Inode, n int) time.Duration {
			ws := make([]layout.BlockWrite, n)
			for i := range ws {
				ws[i] = layout.BlockWrite{Blk: core.BlockNo(i), Size: core.BlockSize}
			}
			start := k.Now()
			if err := arr.WriteBlocks(tk, ino, ws); err != nil {
				t.Error(err)
			}
			return k.Now().Sub(start)
		}
		if err := arr.Format(tk); err != nil {
			t.Error(err)
			return
		}
		if err := arr.Mount(tk); err != nil {
			t.Error(err)
			return
		}
		if _, err := arr.AllocInode(tk, core.TypeDirectory); err != nil {
			t.Error(err)
			return
		}
		ino, err := arr.AllocInode(tk, core.TypeRegular)
		if err != nil {
			t.Error(err)
			return
		}
		ino.Extend(width * core.BlockSize)
		write(ino, width) // allocate the blocks and grow the shadows
		served := func() []int64 {
			n := make([]int64, width)
			for i, d := range drvs {
				n[i] = d.DriverStats().Writes.Value()
			}
			return n
		}
		before := served()
		one = write(ino, 1)
		mid := served()
		three = write(ino, width)
		after := served()
		leg := mid[arr.home(ino.ID)] - before[arr.home(ino.ID)]
		for i := range drvs {
			if n := after[i] - mid[i]; n != leg || n == 0 {
				t.Errorf("member %d served %d writes for its leg, the lone leg %d", i, n, leg)
			}
		}
	})
	if one <= 0 {
		t.Fatalf("one leg took %v of simulated time", one)
	}
	if three >= 2*one {
		t.Fatalf("%d legs took %v, one leg %v: the fan serves its members one after another", width, three, one)
	}
}
