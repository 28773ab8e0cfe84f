// Package device implements disk-drivers: components that own the
// disk I/O queues, order outstanding requests with a pluggable
// scheduling policy (C-LOOK by default, as in the paper), and talk
// to either a simulated disk over a simulated connection or to a
// real Unix file acting as the disk back-end. Both drivers present
// the same interface; the file system cannot tell which it has.
package device

import (
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/sched"
)

// Request is one block-level I/O operation submitted by the file
// system. Addresses and counts are in file-system blocks.
type Request struct {
	Op     Op
	Addr   core.DiskAddr
	Blocks int
	// Data carries real bytes in the on-line system; it is nil in
	// the simulator. For reads the driver fills it, for writes the
	// driver consumes it.
	Data []byte
	// Vec is the scatter-gather form of Data: when non-nil the
	// back-end transfers into/out of the segments in order (preadv/
	// pwritev) and Data is ignored. The segments' total length must
	// equal Blocks*BlockSize. The caller must keep every segment
	// resident — and, for writes, unmodified — from Submit until the
	// request completes: segments typically alias cache frames, and
	// the pinning that guarantees this (frame Flushing/fill-claim
	// state, borrow counts) is the caller's responsibility. Fault
	// injection may persist a prefix of a vectored write that ends
	// mid-segment.
	Vec [][]byte
	// Deadline, when nonzero, is used by the scan-EDF scheduler for
	// requests with real-time constraints (continuous media).
	Deadline sched.Time

	// Timing, filled by the driver.
	Enqueued  sched.Time
	Started   sched.Time
	Completed sched.Time
	// CacheHit reports that the disk serviced the request from its
	// internal cache (including immediate-reported writes).
	CacheHit bool
	Err      error

	done sched.Event
	next *Request // intrusive FIFO link
}

// Op is the request direction.
type Op uint8

const (
	// OpRead reads blocks from disk.
	OpRead Op = iota
	// OpWrite writes blocks to disk.
	OpWrite
)

func (o Op) String() string {
	if o == OpRead {
		return "read"
	}
	return "write"
}

// Scheduler is the disk-queue scheduling policy: the paper names
// SCAN, C-SCAN, LOOK, C-LOOK and scan-EDF as the candidates and uses
// C-LOOK as the default. Pop chooses the next request given the
// current head position (block LBA of the last dispatched request).
type Scheduler interface {
	Name() string
	Push(r *Request)
	Pop(headLBA int64) *Request
	Len() int
}

// NewScheduler builds the named scheduler; it powers the registry
// constructors and the ablation benchmarks.
func NewScheduler(name string) (Scheduler, bool) {
	switch name {
	case "fcfs":
		return &FCFS{}, true
	case "sstf":
		return &SSTF{}, true
	case "look", "scan":
		return &LOOK{}, true
	case "clook", "c-look":
		return &CLOOK{}, true
	case "cscan", "c-scan":
		return &CSCAN{}, true
	case "scan-edf":
		return &ScanEDF{}, true
	}
	return nil, false
}

// FCFS serves requests in arrival order.
type FCFS struct {
	head, tail *Request
	n          int
}

// Name returns "fcfs".
func (q *FCFS) Name() string { return "fcfs" }

// Push appends r.
func (q *FCFS) Push(r *Request) {
	r.next = nil
	if q.tail == nil {
		q.head, q.tail = r, r
	} else {
		q.tail.next = r
		q.tail = r
	}
	q.n++
}

// Pop removes the oldest request.
func (q *FCFS) Pop(int64) *Request {
	if q.head == nil {
		return nil
	}
	r := q.head
	q.head = r.next
	if q.head == nil {
		q.tail = nil
	}
	r.next = nil
	q.n--
	return r
}

// Len returns the queue length.
func (q *FCFS) Len() int { return q.n }

// sortedQueue is the shared machinery of the positional policies: a
// slice kept sorted by LBA.
type sortedQueue struct {
	reqs []*Request
}

func (q *sortedQueue) Push(r *Request) {
	i := sort.Search(len(q.reqs), func(i int) bool { return q.reqs[i].Addr.LBA >= r.Addr.LBA })
	q.reqs = append(q.reqs, nil)
	copy(q.reqs[i+1:], q.reqs[i:])
	q.reqs[i] = r
}

func (q *sortedQueue) Len() int { return len(q.reqs) }

// take removes request i. slices.Delete zeroes the vacated tail slot:
// a served request left there would keep its buffers (cache frames)
// reachable for as long as the driver lives.
func (q *sortedQueue) take(i int) *Request {
	r := q.reqs[i]
	q.reqs = slices.Delete(q.reqs, i, i+1)
	return r
}

// firstAtOrAbove returns the index of the first request at or above
// lba, or len if none.
func (q *sortedQueue) firstAtOrAbove(lba int64) int {
	return sort.Search(len(q.reqs), func(i int) bool { return q.reqs[i].Addr.LBA >= lba })
}

// SSTF serves the request closest to the head.
type SSTF struct{ sortedQueue }

// Name returns "sstf".
func (q *SSTF) Name() string { return "sstf" }

// Pop removes the request nearest to headLBA.
func (q *SSTF) Pop(headLBA int64) *Request {
	if len(q.reqs) == 0 {
		return nil
	}
	i := q.firstAtOrAbove(headLBA)
	best := i
	if i == len(q.reqs) {
		best = i - 1
	} else if i > 0 {
		up := q.reqs[i].Addr.LBA - headLBA
		down := headLBA - q.reqs[i-1].Addr.LBA
		if down < up {
			best = i - 1
		}
	}
	return q.take(best)
}

// LOOK is the elevator: sweep toward increasing LBA, reverse at the
// last request in each direction.
type LOOK struct {
	sortedQueue
	down bool // zero value: sweeping toward increasing LBA
}

// Name returns "look".
func (q *LOOK) Name() string { return "look" }

// Pop continues the sweep from headLBA, reversing when the sweep
// direction has no requests left.
func (q *LOOK) Pop(headLBA int64) *Request {
	if len(q.reqs) == 0 {
		return nil
	}
	if q.down {
		// Sweeping down: take the largest request <= head.
		i := q.firstAtOrAbove(headLBA + 1)
		if i > 0 {
			return q.take(i - 1)
		}
		q.down = false
	}
	i := q.firstAtOrAbove(headLBA)
	if i < len(q.reqs) {
		return q.take(i)
	}
	q.down = true
	return q.take(len(q.reqs) - 1)
}

// CLOOK is the paper's default: sweep only toward increasing LBA,
// and when the sweep passes the last request jump back to the lowest
// one (circular LOOK).
type CLOOK struct{ sortedQueue }

// Name returns "clook".
func (q *CLOOK) Name() string { return "clook" }

// Pop takes the lowest request at or above headLBA, wrapping to the
// global lowest when none remain above.
func (q *CLOOK) Pop(headLBA int64) *Request {
	if len(q.reqs) == 0 {
		return nil
	}
	i := q.firstAtOrAbove(headLBA)
	if i == len(q.reqs) {
		i = 0 // wrap
	}
	return q.take(i)
}

// CSCAN sweeps to the end of the disk before wrapping; with LBA
// queues this behaves like CLOOK except the sweep notionally passes
// the disk edge — the distinction matters to seek accounting, not
// ordering, so Pop matches CLOOK.
type CSCAN struct{ CLOOK }

// Name returns "cscan".
func (q *CSCAN) Name() string { return "cscan" }

// ScanEDF orders by deadline first (earliest deadline first) and
// uses C-LOOK order among requests whose deadlines fall in the same
// quantum, following Reddy & Wyllie. Requests without deadlines sort
// after all deadline traffic.
type ScanEDF struct {
	reqs []*Request
	// Quantum groups deadlines; within a group the scan order wins.
	Quantum sched.Time
}

// Name returns "scan-edf".
func (q *ScanEDF) Name() string { return "scan-edf" }

// Push appends r (ordering happens in Pop).
func (q *ScanEDF) Push(r *Request) { q.reqs = append(q.reqs, r) }

// Len returns the queue length.
func (q *ScanEDF) Len() int { return len(q.reqs) }

// Pop removes the request with the earliest deadline quantum,
// breaking ties by C-LOOK position.
func (q *ScanEDF) Pop(headLBA int64) *Request {
	if len(q.reqs) == 0 {
		return nil
	}
	quantum := q.Quantum
	if quantum == 0 {
		quantum = sched.Time(50 * 1e6) // 50 ms default quantum
	}
	bucket := func(r *Request) sched.Time {
		if r.Deadline == 0 {
			return sched.Forever
		}
		return r.Deadline / quantum
	}
	best := 0
	for i := 1; i < len(q.reqs); i++ {
		bi, bb := bucket(q.reqs[i]), bucket(q.reqs[best])
		switch {
		case bi < bb:
			best = i
		case bi == bb && clookBefore(q.reqs[i], q.reqs[best], headLBA):
			best = i
		}
	}
	r := q.reqs[best]
	q.reqs = slices.Delete(q.reqs, best, best+1)
	return r
}

// clookBefore reports whether a comes before b in C-LOOK order from
// the given head position.
func clookBefore(a, b *Request, headLBA int64) bool {
	aUp, bUp := a.Addr.LBA >= headLBA, b.Addr.LBA >= headLBA
	if aUp != bUp {
		return aUp // ahead of the head wins over wrapped
	}
	return a.Addr.LBA < b.Addr.LBA
}
