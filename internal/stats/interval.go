package stats

import (
	"fmt"
	"sync"
	"time"
)

// IntervalReport is one periodic report line: how many operations
// completed in the interval and their mean latency, printed every 15
// minutes of simulation time as in the paper.
type IntervalReport struct {
	Start, End time.Duration
	Ops        int
	MeanLat    time.Duration
}

func (r IntervalReport) String() string {
	return fmt.Sprintf("[%8s - %8s] ops=%-8d mean=%v",
		r.Start.Round(time.Second), r.End.Round(time.Second), r.Ops,
		r.MeanLat.Round(time.Microsecond))
}

// IntervalTracker accumulates per-interval operation statistics.
// The replayer observes each completed operation; Cut closes the
// current interval and returns its report. Reports may be read
// directly once observation has stopped.
type IntervalTracker struct {
	mu      sync.Mutex
	start   time.Duration
	ops     int
	latSum  time.Duration
	Reports []IntervalReport
}

// NewIntervalTracker returns a tracker starting at time zero.
func NewIntervalTracker() *IntervalTracker { return &IntervalTracker{} }

// Observe records one completed operation.
func (t *IntervalTracker) Observe(lat time.Duration) {
	t.mu.Lock()
	t.ops++
	t.latSum += lat
	t.mu.Unlock()
}

// Cut closes the interval ending at end and starts the next one.
func (t *IntervalTracker) Cut(end time.Duration) IntervalReport {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := IntervalReport{Start: t.start, End: end, Ops: t.ops}
	if t.ops > 0 {
		r.MeanLat = t.latSum / time.Duration(t.ops)
	}
	t.Reports = append(t.Reports, r)
	t.start = end
	t.ops = 0
	t.latSum = 0
	return r
}
