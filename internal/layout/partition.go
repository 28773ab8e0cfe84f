package layout

import (
	"fmt"
	"sync"

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

// requests recycles device requests. A request is zeroed before it
// goes back, so a pooled one keeps no buffer reachable; the driver
// keeps none after Do returns.
var requests = sync.Pool{New: func() any { return new(device.Request) }}

// do runs one request of count blocks at partition-relative lba, with
// its bytes in data or, when vec is non-nil, scattered over vec.
func (p *Partition) do(t sched.Task, op device.Op, lba int64, count int, data []byte, vec [][]byte, dl sched.Time) error {
	if err := p.check(lba, count); err != nil {
		return err
	}
	r := requests.Get().(*device.Request)
	*r = device.Request{
		Op:       op,
		Addr:     core.DiskAddr{Disk: p.Disk, LBA: p.Start + lba},
		Blocks:   count,
		Data:     data,
		Vec:      vec,
		Deadline: dl,
	}
	err := p.Drv.Do(t, r)
	*r = device.Request{}
	requests.Put(r)
	return err
}

// Read reads count blocks at partition-relative lba into data.
func (p *Partition) Read(t sched.Task, lba int64, count int, data []byte) error {
	return p.do(t, device.OpRead, lba, count, data, nil, 0)
}

// Write writes count blocks at partition-relative lba from data.
func (p *Partition) Write(t sched.Task, lba int64, count int, data []byte) error {
	return p.do(t, device.OpWrite, lba, count, data, nil, 0)
}

// WriteDeadline is Write with a scan-EDF deadline attached.
func (p *Partition) WriteDeadline(t sched.Task, lba int64, count int, data []byte, dl sched.Time) error {
	return p.do(t, device.OpWrite, lba, count, data, nil, dl)
}

// ReadVec reads count blocks at partition-relative lba, scattering
// into vec's segments in order. The segments must total
// count*BlockSize bytes and stay resident until the call returns;
// they typically alias pinned cache frames.
func (p *Partition) ReadVec(t sched.Task, lba int64, count int, vec [][]byte) error {
	return p.do(t, device.OpRead, lba, count, nil, vec, 0)
}

// WriteVec writes count blocks at partition-relative lba, gathering
// from vec's segments in order. The segments must total
// count*BlockSize bytes and stay resident and unmodified until the
// call returns.
func (p *Partition) WriteVec(t sched.Task, lba int64, count int, vec [][]byte) error {
	return p.do(t, device.OpWrite, lba, count, nil, vec, 0)
}

// ReadRun reads count blocks at partition-relative lba as one request
// into the first count of bufs' segments, each exactly BlockSize long
// (the driver rejects a vector of any other total); empty bufs (a
// simulated partition) moves no data.
func (p *Partition) ReadRun(t sched.Task, lba int64, count int, bufs [][]byte) error {
	switch {
	case len(bufs) == 0:
		return p.Read(t, lba, count, nil)
	case count == 1:
		return p.Read(t, lba, 1, bufs[0])
	}
	return p.ReadVec(t, lba, count, bufs[:count])
}
