// Package disk implements the simulator's disk component: a
// representative of a real disk that knows about heads, tracks,
// sectors, rotational speed, controller overhead and cache policy.
// Each disk is modeled by its own thread of control that waits for
// work, seeks, takes the rotational delay, transfers the media, and
// reports back over the host/disk connection.
//
// The detailed model follows the HP 97560 as published by Ruemmler &
// Wilkes and by Kotz et al. — the same drive the paper simulates —
// including the 128 KB cache used for immediate-reported writes and
// idle read-ahead. A deliberately naive fixed-latency model is also
// provided to reproduce the paper's warning that simple disk models
// mislead (Ruemmler reported errors up to 112%).
package disk

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
)

// Op is the direction of an I/O request.
type Op uint8

const (
	// Read moves sectors from disk to host.
	Read Op = iota
	// Write moves sectors from host to disk.
	Write
)

func (o Op) String() string {
	if o == Read {
		return "read"
	}
	return "write"
}

// IOReq is the I/O-request data structure exchanged between
// disk-driver and disk. It carries everything the simulator needs to
// play the operation plus timing fields for measurement.
type IOReq struct {
	Op      Op
	LBA     int64 // sector address
	Sectors int

	// Done is signaled exactly once when the request completes
	// (for immediate-reported writes: when the data is accepted
	// into the disk cache).
	Done sched.Event

	// CacheHit is set by the disk when its cache served the read or
	// took the immediate-reported write.
	CacheHit bool
}

// Params describes a disk model.
type Params struct {
	Name            string
	Cylinders       int
	Heads           int
	SectorsPerTrack int
	RPM             int

	// Seek curve, Ruemmler & Wilkes form: 0 for d=0;
	// SeekA + SeekB*sqrt(d) ms for d < ShortSeekCyls;
	// SeekC + SeekD*d ms otherwise.
	ShortSeekCyls              int
	SeekA, SeekB, SeekC, SeekD float64

	HeadSwitch time.Duration
	TrackSkew  int // sectors of skew per head switch
	CylSkew    int // sectors of skew per cylinder crossing

	ControllerOverhead time.Duration
	CacheBytes         int64
	ReadAheadBytes     int64
	ImmediateReport    bool

	// FixedAccess, when nonzero, selects the naive model: every
	// request costs ControllerOverhead + FixedAccess + media
	// transfer, with no seek/rotation simulation.
	FixedAccess time.Duration
}

// HP97560 returns the published HP 97560 parameters: 1962 cylinders,
// 19 heads, 72 sectors of 512 bytes per track (≈1.3 GB), 4002 rpm,
// 128 KB cache, immediate-reported writes and 4 KB read-ahead. The
// 2 ms controller overhead matches the paper's observed cache-service
// floor.
func HP97560(name string) Params {
	return Params{
		Name:            name,
		Cylinders:       1962,
		Heads:           19,
		SectorsPerTrack: 72,
		RPM:             4002,
		ShortSeekCyls:   383,
		SeekA:           3.24, SeekB: 0.400,
		SeekC: 8.00, SeekD: 0.008,
		HeadSwitch:         1600 * time.Microsecond,
		TrackSkew:          8,
		CylSkew:            18,
		ControllerOverhead: 2 * time.Millisecond,
		CacheBytes:         128 << 10,
		ReadAheadBytes:     4 << 10,
		ImmediateReport:    true,
	}
}

// Naive returns a fixed-latency model of the same geometry: the
// "simple disk model" the paper warns about.
func Naive(name string, avg time.Duration) Params {
	p := HP97560(name)
	p.FixedAccess = avg
	p.ImmediateReport = false
	p.CacheBytes = 0
	p.ReadAheadBytes = 0
	return p
}

// SectorBytes is the sector size the models use.
const SectorBytes = core.SectorSize

// Conn is the disk's view of the host/disk connection: enough of
// bus.Bus to acquire, transfer and release. It is an interface so
// disks can be tested without a bus.
type Conn interface {
	Send(t sched.Task, n int64)
}

// Disk simulates one drive.
type Disk struct {
	p    Params
	k    sched.Kernel
	conn Conn

	// Mechanism state.
	curCyl  int
	curHead int

	// Incoming FIFO from the driver; ordering policy lives in the
	// driver, the drive services in arrival order.
	queue []*IOReq
	work  sched.Event

	// Cache state: one read segment (most recent read + read-ahead)
	// and a dirty byte count for immediate-reported writes.
	cacheStart, cacheEnd int64 // cached sector range [start,end)
	dirtyBytes           int64
}

// New creates a disk on kernel k connected through conn. Call Start
// to spawn its mechanism task.
func New(k sched.Kernel, p Params, conn Conn) *Disk {
	d := &Disk{
		p:          p,
		k:          k,
		conn:       conn,
		work:       k.NewEvent(p.Name + ".work"),
		cacheStart: -1,
		cacheEnd:   -1,
	}
	return d
}

// Params returns the disk's model parameters.
func (d *Disk) Params() Params { return d.p }

// CapacitySectors returns the number of addressable sectors.
func (d *Disk) CapacitySectors() int64 {
	return int64(d.p.Cylinders) * int64(d.p.Heads) * int64(d.p.SectorsPerTrack)
}

// CapacityBlocks returns capacity in file-system blocks.
func (d *Disk) CapacityBlocks() int64 {
	return d.CapacitySectors() / core.SectorsPerBlock
}

// RotationPeriod returns the time of one revolution.
func (d *Disk) RotationPeriod() time.Duration {
	return time.Duration(int64(time.Minute) / int64(d.p.RPM))
}

// sectorTime returns the time one sector passes under the head.
func (d *Disk) sectorTime() time.Duration {
	return d.RotationPeriod() / time.Duration(d.p.SectorsPerTrack)
}

// SeekTime evaluates the seek curve for a move of dist cylinders.
func (d *Disk) SeekTime(dist int) time.Duration {
	if dist < 0 {
		dist = -dist
	}
	if dist == 0 {
		return 0
	}
	var ms float64
	if dist < d.p.ShortSeekCyls {
		ms = d.p.SeekA + d.p.SeekB*math.Sqrt(float64(dist))
	} else {
		ms = d.p.SeekC + d.p.SeekD*float64(dist)
	}
	return time.Duration(ms * float64(time.Millisecond))
}

// locate maps a sector LBA to (cylinder, head, sector).
func (d *Disk) locate(lba int64) (cyl, head, sector int) {
	spt := int64(d.p.SectorsPerTrack)
	perCyl := spt * int64(d.p.Heads)
	cyl = int(lba / perCyl)
	head = int((lba % perCyl) / spt)
	sector = int(lba % spt)
	return
}

// physPos returns the rotational position (in sectors) of logical
// sector s on the given track, after skew.
func (d *Disk) physPos(cyl, head, sector int) int {
	return (sector + cyl*d.p.CylSkew + head*d.p.TrackSkew) % d.p.SectorsPerTrack
}

// rotWait returns the rotational delay until physical sector p
// arrives under the head at time now.
func (d *Disk) rotWait(now sched.Time, p int) time.Duration {
	st := int64(d.sectorTime())
	rev := st * int64(d.p.SectorsPerTrack)
	cur := int64(now) % rev // position within revolution, ns
	target := int64(p) * st
	delta := target - cur
	if delta < 0 {
		delta += rev
	}
	return time.Duration(delta)
}

// Start spawns the drive's mechanism task.
func (d *Disk) Start() {
	d.k.Go(d.p.Name, d.mechanismLoop)
}

// Submit hands an I/O request to the drive. The driver calls it
// after transferring the request (and write data) over the bus.
// Immediate-reported writes complete here when cache space allows.
func (d *Disk) Submit(t sched.Task, r *IOReq) {
	bytes := int64(r.Sectors) * SectorBytes
	if r.Op == Write && d.p.ImmediateReport && d.dirtyBytes+bytes <= d.p.CacheBytes {
		d.dirtyBytes += bytes
		r.CacheHit = true
		r.Done.Signal() // completes now; media write happens below
	}
	d.queue = append(d.queue, r)
	d.work.Signal()
}

// QueueLen reports the number of requests the drive has accepted
// but not finished with.
func (d *Disk) QueueLen() int { return len(d.queue) }

// mechanismLoop is the drive's thread of control.
func (d *Disk) mechanismLoop(t sched.Task) {
	for {
		d.work.Wait(t)
		if len(d.queue) == 0 {
			continue
		}
		r := d.queue[0]
		d.queue = d.queue[1:]
		d.service(t, r)
		// Idle read-ahead: when no more requests wait, extend the
		// cache segment past the last read.
		if r.Op == Read && len(d.queue) == 0 && d.p.ReadAheadBytes > 0 {
			d.readAhead(t)
		}
	}
}

// service performs one request's mechanism work and completion.
func (d *Disk) service(t sched.Task, r *IOReq) {
	t.Sleep(d.p.ControllerOverhead)

	bytes := int64(r.Sectors) * SectorBytes
	switch {
	case d.p.FixedAccess > 0:
		// Naive model: flat access time plus media rate.
		t.Sleep(d.p.FixedAccess)
		t.Sleep(time.Duration(r.Sectors) * d.sectorTime())

	case r.Op == Read && r.LBA >= d.cacheStart && r.LBA+int64(r.Sectors) <= d.cacheEnd:
		// Whole request in the cache segment: no mechanism work.
		r.CacheHit = true

	default:
		d.mechTransfer(t, r)
		if r.Op == Read {
			d.cacheStart, d.cacheEnd = r.LBA, r.LBA+int64(r.Sectors)
		} else if r.LBA < d.cacheEnd && r.LBA+int64(r.Sectors) > d.cacheStart {
			// Write overlapping the read segment invalidates it.
			d.cacheStart, d.cacheEnd = -1, -1
		}
	}

	if r.Op == Write && r.CacheHit {
		// Already immediate-reported; just release the cache space.
		d.dirtyBytes -= bytes
		return
	}
	// Reconnect and return results (data for reads, status only
	// for writes).
	resp := int64(32)
	if r.Op == Read {
		resp += bytes
	}
	d.conn.Send(t, resp)
	r.Done.Signal()
}

// mechTransfer seeks, waits rotation and moves r's sectors over the
// media, crossing tracks and cylinders as needed.
func (d *Disk) mechTransfer(t sched.Task, r *IOReq) {
	cyl, head, sector := d.locate(r.LBA)
	// Position the arm.
	if cyl != d.curCyl {
		t.Sleep(d.SeekTime(cyl - d.curCyl))
		d.curCyl = cyl
		d.curHead = head
	} else if head != d.curHead {
		t.Sleep(d.p.HeadSwitch)
		d.curHead = head
	}
	remaining := r.Sectors
	for remaining > 0 {
		onTrack := d.p.SectorsPerTrack - sector
		n := remaining
		if n > onTrack {
			n = onTrack
		}
		t.Sleep(d.rotWait(d.k.Now(), d.physPos(cyl, head, sector)))
		t.Sleep(time.Duration(n) * d.sectorTime())
		remaining -= n
		sector += n
		if remaining > 0 {
			sector = 0
			head++
			if head == d.p.Heads {
				head = 0
				cyl++
				t.Sleep(d.SeekTime(1))
				d.curCyl = cyl
			} else {
				t.Sleep(d.p.HeadSwitch)
			}
			d.curHead = head
		}
	}
}

// readAhead extends the cache segment by ReadAheadBytes sectors
// following the last read, as the HP 97560 does when idle.
func (d *Disk) readAhead(t sched.Task) {
	if d.cacheEnd < 0 || d.cacheEnd >= d.CapacitySectors() {
		return
	}
	n := d.p.ReadAheadBytes / SectorBytes
	if d.cacheEnd+n > d.CapacitySectors() {
		n = d.CapacitySectors() - d.cacheEnd
	}
	// Sequential continuation: media time only.
	t.Sleep(time.Duration(n) * d.sectorTime())
	d.cacheEnd += n
	// Bound the segment to the cache size.
	maxSectors := d.p.CacheBytes / SectorBytes
	if d.cacheEnd-d.cacheStart > maxSectors {
		d.cacheStart = d.cacheEnd - maxSectors
	}
}

// VolatileBytes reports the immediate-reported write bytes sitting in
// the drive's volatile cache, accepted ("done") but not yet on the
// media. A power cut loses them even though the host saw the write
// complete — the reliability study reports this exposure separately,
// since no host-side flush policy can protect it.
func (d *Disk) VolatileBytes() int64 { return d.dirtyBytes }

func (d *Disk) String() string {
	return fmt.Sprintf("%s: %d cyl × %d heads × %d spt @ %d rpm, %s cache",
		d.p.Name, d.p.Cylinders, d.p.Heads, d.p.SectorsPerTrack, d.p.RPM,
		byteSize(d.p.CacheBytes))
}

func byteSize(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
