package device

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/sched"
	"repro/internal/stats"
)

// Driver is the file system's view of a disk: submit block requests
// and wait for completion. The simulated and real drivers implement
// exactly the same interface — the system itself does not know it is
// communicating with a "fake" disk.
type Driver interface {
	Name() string
	// Submit queues r; completion is signaled through Wait.
	Submit(t sched.Task, r *Request)
	// Wait blocks until r completes.
	Wait(t sched.Task, r *Request)
	// Do submits r and waits, returning r.Err.
	Do(t sched.Task, r *Request) error
	// QueueLen is the current number of queued (unstarted) requests.
	QueueLen() int
	// CapacityBlocks is the disk size in file-system blocks.
	CapacityBlocks() int64
	// DriverStats exposes the driver's statistics plug-in.
	DriverStats() *DriverStats
	// SetInjector installs (nil clears) the fault interceptor
	// consulted at the hardware boundary; see Interceptor.
	SetInjector(ij Interceptor)
	// Close releases the driver's backing resources (the image file
	// of a file-backed driver). The driver must be idle.
	Close() error
}

// DriverStats is the per-driver statistics plug-in: I/O counts,
// queue-size histogram (sampled at each arrival, as the paper's
// disk-queue statistics object does), and wait/service times.
type DriverStats struct {
	Reads, Writes *stats.Counter
	BlocksRead    *stats.Counter
	BlocksWritten *stats.Counter
	// VecReads/VecWrites count the requests that carried a
	// scatter-gather vector (a vectored request is one request —
	// these are a subset of Reads/Writes, never an addition).
	VecReads      *stats.Counter
	VecWrites     *stats.Counter
	QueueHist     *stats.Histogram
	WaitMS        *stats.Moments
	ServiceMS     *stats.Moments
	DiskCacheHits *stats.Counter
	// Health evidence, accumulated at request completion: transient
	// I/O errors, permanent dead-member rejections, and completions
	// over the latency SLO. A health monitor polls these cumulative
	// counters to build its evidence window; everything here is an
	// atomic so a sampler never touches kernel state.
	IOErrors   *stats.Counter
	DeadErrors *stats.Counter
	SlowIOs    *stats.Counter
	consecErrs atomic.Int64
	sloMicros  atomic.Int64
}

func newDriverStats(name string) *DriverStats {
	return &DriverStats{
		Reads:         stats.NewCounter(name + ".reads"),
		Writes:        stats.NewCounter(name + ".writes"),
		BlocksRead:    stats.NewCounter(name + ".blocks_read"),
		BlocksWritten: stats.NewCounter(name + ".blocks_written"),
		VecReads:      stats.NewCounter(name + ".vec_reads"),
		VecWrites:     stats.NewCounter(name + ".vec_writes"),
		QueueHist:     stats.NewHistogram(name+".queue_len", 0, 1, 2, 4, 8, 16, 32, 64),
		WaitMS:        stats.NewMoments(name + ".wait_ms"),
		ServiceMS:     stats.NewMoments(name + ".service_ms"),
		DiskCacheHits: stats.NewCounter(name + ".disk_cache_hits"),
		IOErrors:      stats.NewCounter(name + ".io_errors"),
		DeadErrors:    stats.NewCounter(name + ".dead_errors"),
		SlowIOs:       stats.NewCounter(name + ".slow_ios"),
	}
}

// SetLatencySLO arms the slow-I/O counter: completions whose service
// time exceeds d count as SLO breaches. Zero disables (the default —
// the simulator's modeled latencies should not trip it accidentally).
func (s *DriverStats) SetLatencySLO(d time.Duration) {
	s.sloMicros.Store(d.Microseconds())
}

// ConsecutiveErrors returns the current run of back-to-back failed
// requests; any success resets it to zero.
func (s *DriverStats) ConsecutiveErrors() int64 { return s.consecErrs.Load() }

// noteCompletion folds one completed request into the health
// evidence. Power-cut errors are excluded: a cut is a whole-system
// event, not evidence against one member.
func (s *DriverStats) noteCompletion(err error, serviceMS float64) {
	if slo := s.sloMicros.Load(); slo > 0 && serviceMS*1000 > float64(slo) {
		s.SlowIOs.Inc()
	}
	switch {
	case err == nil:
		s.consecErrs.Store(0)
	case errors.Is(err, ErrPowerCut):
	case errors.Is(err, ErrDiskDead):
		s.DeadErrors.Inc()
		s.consecErrs.Add(1)
	default:
		s.IOErrors.Inc()
		s.consecErrs.Add(1)
	}
}

// Requests returns the total requests the driver has issued.
func (s *DriverStats) Requests() int64 {
	return s.Reads.Value() + s.Writes.Value()
}

// BlocksPerRequest returns the mean transfer size in blocks — the
// clustering observability number: per-request overhead (bus
// arbitration, controller setup, the seek/rotation a transfer
// amortizes) divides by exactly this factor.
func (s *DriverStats) BlocksPerRequest() float64 {
	reqs := s.Requests()
	if reqs == 0 {
		return 0
	}
	return float64(s.BlocksRead.Value()+s.BlocksWritten.Value()) / float64(reqs)
}

// Register adds all sources to set.
func (s *DriverStats) Register(set *stats.Set) {
	set.Add(s.Reads)
	set.Add(s.Writes)
	set.Add(s.BlocksRead)
	set.Add(s.BlocksWritten)
	set.Add(s.VecReads)
	set.Add(s.VecWrites)
	set.Add(s.QueueHist)
	set.Add(s.WaitMS)
	set.Add(s.ServiceMS)
	set.Add(s.DiskCacheHits)
	set.Add(s.IOErrors)
	set.Add(s.DeadErrors)
	set.Add(s.SlowIOs)
}

// backend performs one request synchronously; the generic driver
// engine supplies queueing, scheduling and statistics around it.
type backend interface {
	capacityBlocks() int64
	perform(t sched.Task, r *Request)
}

// driver is the engine shared by the simulated and real drivers.
type driver struct {
	name    string
	k       sched.Kernel
	queue   Scheduler
	be      backend
	mu      sched.Mutex
	work    sched.Event
	headLBA int64
	st      *DriverStats
	// closed, set by Close, lets the worker exit once its queue is
	// empty.
	closed atomic.Bool

	// ijMu guards the injector pointer with a plain mutex: harnesses
	// install and clear plans from outside any kernel task.
	ijMu sync.Mutex
	ij   Interceptor
}

func newDriver(k sched.Kernel, name string, q Scheduler, be backend) *driver {
	d := &driver{
		name:  name,
		k:     k,
		queue: q,
		be:    be,
		mu:    k.NewMutex(name + ".q"),
		work:  k.NewEvent(name + ".work"),
		st:    newDriverStats(name),
	}
	k.Go(name+".worker", d.workerLoop)
	return d
}

// Name returns the driver name.
func (d *driver) Name() string { return d.name }

// DriverStats returns the statistics plug-in.
func (d *driver) DriverStats() *DriverStats { return d.st }

// SetInjector installs the fault interceptor (nil = none).
func (d *driver) SetInjector(ij Interceptor) {
	d.ijMu.Lock()
	d.ij = ij
	d.ijMu.Unlock()
}

func (d *driver) injector() Interceptor {
	d.ijMu.Lock()
	defer d.ijMu.Unlock()
	return d.ij
}

// Close stops the worker once its queue drains and releases the
// backing resources of back-ends that hold any (the image file).
func (d *driver) Close() error {
	d.closed.Store(true)
	d.work.Signal()
	if c, ok := d.be.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// perform runs one request against the hardware, routing it through
// the fault seam first: an interceptor may fail it outright, let a
// prefix of a write through (torn write), or — after a power cut —
// swallow it entirely.
func (d *driver) perform(t sched.Task, r *Request) {
	ij := d.injector()
	if ij == nil {
		d.be.perform(t, r)
		return
	}
	dec := ij.Intercept(r)
	if dec.Err == nil {
		d.be.perform(t, r)
		return
	}
	if r.Op == OpWrite && dec.TornBlocks > 0 && dec.TornBlocks < r.Blocks {
		torn := *r
		torn.Blocks = dec.TornBlocks
		if r.Vec != nil {
			// The persisted prefix of a vectored write may end
			// mid-iovec; ClipVec trims the last segment to fit.
			torn.Vec = ClipVec(r.Vec, dec.TornBlocks*core.BlockSize)
		}
		torn.done = nil
		d.be.perform(t, &torn)
	} else if r.Op == OpWrite && r.Blocks == 1 && dec.TornBytes > 0 &&
		dec.TornBytes < core.BlockSize && (r.Data != nil || r.Vec != nil) {
		// Sub-block tear: splice the new byte prefix onto the old
		// block contents (read-modify-write against the back-end).
		old := &Request{Op: OpRead, Addr: r.Addr, Blocks: 1, Data: make([]byte, core.BlockSize)}
		d.be.perform(t, old)
		if old.Err == nil {
			if r.Vec != nil {
				copyVecPrefix(old.Data[:dec.TornBytes], r.Vec)
			} else {
				copy(old.Data[:dec.TornBytes], r.Data[:dec.TornBytes])
			}
			torn := &Request{Op: OpWrite, Addr: r.Addr, Blocks: 1, Data: old.Data}
			d.be.perform(t, torn)
		}
	}
	r.Err = dec.Err
}

// CapacityBlocks returns the backing capacity.
func (d *driver) CapacityBlocks() int64 { return d.be.capacityBlocks() }

// Submit queues r for the worker.
func (d *driver) Submit(t sched.Task, r *Request) {
	if r.Blocks <= 0 {
		panic(fmt.Sprintf("device %s: request with %d blocks", d.name, r.Blocks))
	}
	r.Enqueued = d.k.Now()
	if r.done == nil {
		r.done = d.k.NewEvent("req.done")
	}
	d.mu.Lock(t)
	d.st.QueueHist.Observe(int64(d.queue.Len()))
	d.queue.Push(r)
	d.mu.Unlock(t)
	d.work.Signal()
}

// Wait blocks until r completes.
func (d *driver) Wait(t sched.Task, r *Request) {
	if r.done == nil {
		panic("device: Wait before Submit")
	}
	r.done.Wait(t)
}

// Do submits and waits.
func (d *driver) Do(t sched.Task, r *Request) error {
	d.Submit(t, r)
	d.Wait(t, r)
	return r.Err
}

// QueueLen returns the number of requests not yet dispatched.
func (d *driver) QueueLen() int { return d.queue.Len() }

func (d *driver) workerLoop(t sched.Task) {
	for {
		d.work.Wait(t)
		d.mu.Lock(t)
		r := d.queue.Pop(d.headLBA)
		d.mu.Unlock(t)
		if r == nil {
			if d.closed.Load() {
				return
			}
			continue
		}
		r.Started = d.k.Now()
		d.headLBA = r.Addr.LBA
		d.st.WaitMS.Observe(float64(r.Started.Sub(r.Enqueued)) / 1e6)
		d.perform(t, r)
		r.Completed = d.k.Now()
		serviceMS := float64(r.Completed.Sub(r.Started)) / 1e6
		d.st.ServiceMS.Observe(serviceMS)
		d.st.noteCompletion(r.Err, serviceMS)
		if r.Op == OpRead {
			d.st.Reads.Inc()
			d.st.BlocksRead.Add(int64(r.Blocks))
			if r.Vec != nil {
				d.st.VecReads.Inc()
			}
		} else {
			d.st.Writes.Inc()
			d.st.BlocksWritten.Add(int64(r.Blocks))
			if r.Vec != nil {
				d.st.VecWrites.Inc()
			}
		}
		if r.CacheHit {
			d.st.DiskCacheHits.Inc()
		}
		r.done.Signal()
	}
}

// Conn is the driver's view of the host/disk connection.
type Conn interface {
	Send(t sched.Task, n int64) time.Duration
}

// simBackend talks to a simulated disk over a simulated connection:
// acquire the connection, transfer the request (with data for
// writes), let the drive work, and receive the completion the drive
// sends back.
type simBackend struct {
	k    sched.Kernel
	conn Conn
	dsk  *disk.Disk
}

func (b *simBackend) capacityBlocks() int64 { return b.dsk.CapacityBlocks() }

func (b *simBackend) perform(t sched.Task, r *Request) {
	bytes := int64(r.Blocks) * core.BlockSize
	req := int64(32)
	if r.Op == OpWrite {
		req += bytes // data travels with the request
	}
	b.conn.Send(t, req)
	io := &disk.IOReq{
		Op:      disk.Read,
		LBA:     r.Addr.LBA * core.SectorsPerBlock,
		Sectors: r.Blocks * core.SectorsPerBlock,
		Done:    b.k.NewEvent("io.done"),
	}
	if r.Op == OpWrite {
		io.Op = disk.Write
	}
	b.dsk.Submit(t, io)
	io.Done.Wait(t)
	r.CacheHit = io.CacheHit
}

// NewSimDriver creates the simulated driver for dsk reached over
// conn, using queue scheduler q (C-LOOK when q is nil).
func NewSimDriver(k sched.Kernel, name string, dsk *disk.Disk, conn Conn, q Scheduler) Driver {
	if q == nil {
		q = &CLOOK{}
	}
	return newDriver(k, name, q, &simBackend{k: k, conn: conn, dsk: dsk})
}
