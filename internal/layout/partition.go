package layout

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/sched"
)

// Partition is a contiguous block range of one disk, the raw-device
// view a layout formats itself onto. The paper's Sprite replay ran
// 14 file systems over 10 disks; each volume gets a partition.
type Partition struct {
	Drv    device.Driver
	Disk   int   // disk number for DiskAddr reporting
	Start  int64 // first block on the device
	Blocks int64 // length in blocks
	// Simulated partitions move no data.
	Simulated bool
	Mover     core.DataMover
}

// NewPartition describes a block range on drv.
func NewPartition(drv device.Driver, disk int, start, blocks int64, simulated bool) *Partition {
	if start < 0 || blocks <= 0 || start+blocks > drv.CapacityBlocks() {
		panic(fmt.Sprintf("layout: partition [%d,%d) outside device of %d blocks",
			start, start+blocks, drv.CapacityBlocks()))
	}
	var mover core.DataMover = core.RealMover{}
	if simulated {
		mover = core.DefaultSimMover()
	}
	return &Partition{Drv: drv, Disk: disk, Start: start, Blocks: blocks,
		Simulated: simulated, Mover: mover}
}

func (p *Partition) check(lba int64, count int) error {
	if lba < 0 || int64(count) <= 0 || lba+int64(count) > p.Blocks {
		return fmt.Errorf("layout: I/O [%d,%d) outside partition of %d blocks",
			lba, lba+int64(count), p.Blocks)
	}
	return nil
}

// Read reads count blocks at partition-relative lba into data.
func (p *Partition) Read(t sched.Task, lba int64, count int, data []byte) error {
	if err := p.check(lba, count); err != nil {
		return err
	}
	r := &device.Request{
		Op:     device.OpRead,
		Addr:   core.DiskAddr{Disk: p.Disk, LBA: p.Start + lba},
		Blocks: count,
		Data:   data,
	}
	return p.Drv.Do(t, r)
}

// Write writes count blocks at partition-relative lba from data.
func (p *Partition) Write(t sched.Task, lba int64, count int, data []byte) error {
	if err := p.check(lba, count); err != nil {
		return err
	}
	r := &device.Request{
		Op:     device.OpWrite,
		Addr:   core.DiskAddr{Disk: p.Disk, LBA: p.Start + lba},
		Blocks: count,
		Data:   data,
	}
	return p.Drv.Do(t, r)
}

// ReadVec reads count blocks at partition-relative lba, scattering
// into vec's segments in order. The segments must total
// count*BlockSize bytes and stay resident until the call returns;
// they typically alias pinned cache frames.
func (p *Partition) ReadVec(t sched.Task, lba int64, count int, vec [][]byte) error {
	if err := p.check(lba, count); err != nil {
		return err
	}
	r := &device.Request{
		Op:     device.OpRead,
		Addr:   core.DiskAddr{Disk: p.Disk, LBA: p.Start + lba},
		Blocks: count,
		Vec:    vec,
	}
	return p.Drv.Do(t, r)
}

// ReadRun reads count blocks at partition-relative lba as one request
// into the first count of bufs' BlockSize segments; empty bufs (a
// simulated partition) moves no data.
func (p *Partition) ReadRun(t sched.Task, lba int64, count int, bufs [][]byte) error {
	if len(bufs) == 0 {
		return p.Read(t, lba, count, nil)
	}
	if count == 1 {
		return p.Read(t, lba, 1, bufs[0][:core.BlockSize])
	}
	vec := make([][]byte, count)
	for i := range vec {
		vec[i] = bufs[i][:core.BlockSize]
	}
	return p.ReadVec(t, lba, count, vec)
}

// WriteVec writes count blocks at partition-relative lba, gathering
// from vec's segments in order. The segments must total
// count*BlockSize bytes and stay resident and unmodified until the
// call returns.
func (p *Partition) WriteVec(t sched.Task, lba int64, count int, vec [][]byte) error {
	if err := p.check(lba, count); err != nil {
		return err
	}
	r := &device.Request{
		Op:     device.OpWrite,
		Addr:   core.DiskAddr{Disk: p.Disk, LBA: p.Start + lba},
		Blocks: count,
		Vec:    vec,
	}
	return p.Drv.Do(t, r)
}

// WriteDeadline is Write with a scan-EDF deadline attached.
func (p *Partition) WriteDeadline(t sched.Task, lba int64, count int, data []byte, dl sched.Time) error {
	if err := p.check(lba, count); err != nil {
		return err
	}
	r := &device.Request{
		Op:       device.OpWrite,
		Addr:     core.DiskAddr{Disk: p.Disk, LBA: p.Start + lba},
		Blocks:   count,
		Data:     data,
		Deadline: dl,
	}
	return p.Drv.Do(t, r)
}
