package stats

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"time"
)

// LogHistogram is a bounded log-bucket latency histogram: a fixed
// set of exponentially growing duration buckets plus sum and count.
// Unlike LatencyDist it never stores individual samples, so a
// long-running server can observe forever in constant memory — the
// production counterpart to the simulator's exact-CDF object. It is
// what the telemetry registry exports as a Prometheus histogram.
type LogHistogram struct {
	name   string
	bounds []int64 // inclusive upper bounds in nanoseconds, ascending
	mu     sync.Mutex
	counts []int64 // len(bounds)+1; the last bucket is +Inf overflow
	total  int64
	sum    int64 // nanoseconds
}

// NewLogHistogram returns a histogram whose i-th upper bound is
// min*factor^i, for n buckets (plus the implicit +Inf overflow).
func NewLogHistogram(name string, min time.Duration, factor float64, n int) *LogHistogram {
	if min <= 0 || factor <= 1 || n <= 0 {
		panic("stats: LogHistogram needs min > 0, factor > 1, n > 0")
	}
	bounds := make([]int64, n)
	b := float64(min)
	for i := range bounds {
		bounds[i] = int64(math.Round(b))
		b *= factor
	}
	return &LogHistogram{name: name, bounds: bounds, counts: make([]int64, n+1)}
}

// NewLatencyHistogram returns the standard operation-latency shape:
// 26 doubling buckets from 16µs to ~9 minutes, covering everything
// from a warm cache hit to a pathological queueing stall.
func NewLatencyHistogram(name string) *LogHistogram {
	return NewLogHistogram(name, 16*time.Microsecond, 2, 26)
}

// Observe records one duration. Negative durations clamp to zero.
func (h *LogHistogram) Observe(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	// The bounds grow geometrically, so a linear scan beats binary
	// search for the short tails that dominate; still O(len(bounds))
	// worst case over ~26 entries.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.mu.Lock()
	h.counts[i]++
	h.total++
	h.sum += v
	h.mu.Unlock()
}

// Name returns the histogram's name.
func (h *LogHistogram) Name() string { return h.name }

// Total returns the observation count.
func (h *LogHistogram) Total() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// Sum returns the accumulated duration over all observations.
func (h *LogHistogram) Sum() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return time.Duration(h.sum)
}

// Snapshot returns the bucket upper bounds (shared, immutable), a
// copy of the per-bucket counts (len(bounds)+1), the total count and
// the sum — one consistent view for exporters.
func (h *LogHistogram) Snapshot() (bounds []int64, counts []int64, total int64, sum time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.bounds, append([]int64(nil), h.counts...), h.total, time.Duration(h.sum)
}

// Quantile estimates the q-quantile by linear interpolation inside
// the owning bucket — the best a bucketed histogram can do.
func (h *LogHistogram) Quantile(q float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.total)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank <= next || i == len(h.counts)-1 {
			lo := int64(0)
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := lo
			if i < len(h.bounds) {
				hi = h.bounds[i]
			}
			frac := (rank - cum) / float64(c)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return time.Duration(lo) + time.Duration(frac*float64(hi-lo))
		}
		cum = next
	}
	return time.Duration(h.bounds[len(h.bounds)-1])
}

// String renders the non-empty buckets as an aligned table.
func (h *LogHistogram) String() string {
	bounds, counts, total, sum := h.Snapshot()
	var b strings.Builder
	mean := time.Duration(0)
	if total > 0 {
		mean = sum / time.Duration(total)
	}
	fmt.Fprintf(&b, "%s: n=%d mean=%v\n", h.name, total, mean.Round(time.Microsecond))
	if total == 0 {
		return b.String()
	}
	maxC := int64(1)
	for _, c := range counts {
		if c > maxC {
			maxC = c
		}
	}
	for i, c := range counts {
		if c == 0 {
			continue
		}
		var label string
		if i < len(bounds) {
			label = "<=" + time.Duration(bounds[i]).String()
		} else {
			label = "> " + time.Duration(bounds[len(bounds)-1]).String()
		}
		bar := strings.Repeat("#", int(40*c/maxC))
		fmt.Fprintf(&b, "  %14s %9d %5.1f%% %s\n", label, c, 100*float64(c)/float64(total), bar)
	}
	return b.String()
}
