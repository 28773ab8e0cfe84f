// Package bus models the connection between host and disk
// sub-system: the paper's SCSI-2 bus at 10 MB/s with arbitration,
// contention between controllers sharing the connection, and
// disconnect/reconnect within a transaction (the bus is held only
// while requests or data actually move, not during seeks or
// rotation).
//
// As no real data moves through a simulated connection, Transfer
// simply delays the calling task by the time the bytes would take.
package bus

import (
	"time"

	"repro/internal/sched"
)

// Params describes a bus.
type Params struct {
	Name        string
	BytesPerSec int64         // raw transfer bandwidth
	Arbitration time.Duration // cost of winning arbitration
	PerMessage  time.Duration // fixed cost of each message/selection
}

// SCSI2 returns the paper's SCSI-2 parameters: 10 MB/s transfer
// rate with conventional arbitration and selection overheads.
func SCSI2(name string) Params {
	return Params{
		Name:        name,
		BytesPerSec: 10 << 20,
		Arbitration: 10 * time.Microsecond,
		PerMessage:  100 * time.Microsecond,
	}
}

// Bus is one host/disk connection. Multiple disks (and the host
// initiator) contend for it; arbitration is FIFO through the
// kernel's mutex hand-off.
type Bus struct {
	p  Params
	mu sched.Mutex
}

// New creates a bus on kernel k.
func New(k sched.Kernel, p Params) *Bus {
	if p.BytesPerSec <= 0 {
		p.BytesPerSec = 10 << 20
	}
	return &Bus{p: p, mu: k.NewMutex("bus " + p.Name)}
}

// Name returns the bus name.
func (b *Bus) Name() string { return b.p.Name }

// Acquire wins arbitration for the calling task, blocking while the
// bus is in use by another controller.
func (b *Bus) Acquire(t sched.Task) {
	b.mu.Lock(t)
	if b.p.Arbitration > 0 {
		t.Sleep(b.p.Arbitration)
	}
}

// Release disconnects from the bus, letting the next waiter win
// arbitration.
func (b *Bus) Release(t sched.Task) { b.mu.Unlock(t) }

// Transfer moves n message bytes while the bus is held, delaying the
// task by the wire time. It must be called between Acquire and
// Release.
func (b *Bus) Transfer(t sched.Task, n int64) {
	t.Sleep(b.WireTime(n))
}

// Send is the common transaction shape: acquire, transfer n bytes,
// release.
func (b *Bus) Send(t sched.Task, n int64) {
	b.Acquire(t)
	b.Transfer(t, n)
	b.Release(t)
}

// WireTime reports how long n bytes occupy the bus, without moving
// them — used by capacity planning and tests.
func (b *Bus) WireTime(n int64) time.Duration {
	return b.p.PerMessage + time.Duration(n*int64(time.Second)/b.p.BytesPerSec)
}
