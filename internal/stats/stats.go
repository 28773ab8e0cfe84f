// Package stats provides the framework's plug-in statistics objects:
// counters, running moments, histograms, full-sample latency
// distributions with CDF output, and the interval tracker behind the
// report printed every 15 minutes of simulation time, as the paper's
// general simulation class does.
//
// Components own their statistics objects and hand them out through
// typed accessors; nothing collects them here. The one view of every
// counter is the Prometheus registry pfs.NewRegistry builds over a
// PFS or Patsy stack (internal/telemetry renders it).
//
// Every statistics object is safe for concurrent use. The simulator
// never needs that (exactly one virtual-kernel task runs at a time),
// but the same components instantiated on-line — PFS under the real
// kernel — observe from truly concurrent tasks.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	name string
	n    atomic.Int64
}

// NewCounter returns a named counter.
func NewCounter(name string) *Counter { return &Counter{name: name} }

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.n.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// Name returns the counter's name.
func (c *Counter) Name() string { return c.name }

func (c *Counter) String() string { return fmt.Sprintf("%s=%d", c.name, c.Value()) }

// Moments accumulates mean and variance online (Welford's method),
// plus min and max.
type Moments struct {
	name     string
	mu       sync.Mutex
	n        int64
	mean, m2 float64
	min, max float64
}

// NewMoments returns a named moments accumulator.
func NewMoments(name string) *Moments {
	return &Moments{name: name, min: math.Inf(1), max: math.Inf(-1)}
}

// Observe records one sample.
func (m *Moments) Observe(x float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.n++
	d := x - m.mean
	m.mean += d / float64(m.n)
	m.m2 += d * (x - m.mean)
	if x < m.min {
		m.min = x
	}
	if x > m.max {
		m.max = x
	}
}

// N returns the number of samples.
func (m *Moments) N() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.n
}

// Mean returns the sample mean, or 0 with no samples.
func (m *Moments) Mean() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.meanLocked()
}

func (m *Moments) meanLocked() float64 {
	if m.n == 0 {
		return 0
	}
	return m.mean
}

func (m *Moments) varLocked() float64 {
	if m.n < 2 {
		return 0
	}
	return m.m2 / float64(m.n-1)
}

// Min returns the smallest sample, or 0 with no samples.
func (m *Moments) Min() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.minLocked()
}

func (m *Moments) minLocked() float64 {
	if m.n == 0 {
		return 0
	}
	return m.min
}

// Max returns the largest sample, or 0 with no samples.
func (m *Moments) Max() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.maxLocked()
}

func (m *Moments) maxLocked() float64 {
	if m.n == 0 {
		return 0
	}
	return m.max
}

// Name returns the accumulator's name.
func (m *Moments) Name() string { return m.name }

func (m *Moments) String() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return fmt.Sprintf("%s: n=%d mean=%.3f sd=%.3f min=%.3f max=%.3f",
		m.name, m.n, m.meanLocked(), math.Sqrt(m.varLocked()), m.minLocked(), m.maxLocked())
}

// Histogram is a fixed-bucket histogram over int64 values (the
// framework uses it for queue depths and sector counts). Bounds are
// inclusive upper bounds; values above the last bound land in the
// overflow bucket.
type Histogram struct {
	name   string
	bounds []int64
	mu     sync.Mutex
	counts []int64
	total  int64
	sum    int64
}

// NewHistogram returns a histogram with the given ascending upper
// bounds.
func NewHistogram(name string, bounds ...int64) *Histogram {
	if !sort.SliceIsSorted(bounds, func(i, j int) bool { return bounds[i] < bounds[j] }) {
		panic("stats: histogram bounds must ascend")
	}
	return &Histogram{name: name, bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.mu.Lock()
	h.counts[i]++
	h.total++
	h.sum += v
	h.mu.Unlock()
}

func (h *Histogram) meanLocked() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Snapshot returns the bucket upper bounds (shared, immutable), a
// copy of the per-bucket counts (len(bounds)+1), the total count and
// the value sum — one consistent view for exporters.
func (h *Histogram) Snapshot() (bounds []int64, counts []int64, total int64, sum int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.bounds, append([]int64(nil), h.counts...), h.total, h.sum
}

// Name returns the histogram's name.
func (h *Histogram) Name() string { return h.name }

// String renders the histogram as an aligned text table with a bar
// per bucket, the style of the paper's "standard statistics output
// with histograms".
func (h *Histogram) String() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "%s: n=%d mean=%.2f\n", h.name, h.total, h.meanLocked())
	if h.total == 0 {
		return b.String()
	}
	maxC := int64(1)
	for _, c := range h.counts {
		if c > maxC {
			maxC = c
		}
	}
	for i, c := range h.counts {
		var label string
		if i < len(h.bounds) {
			label = fmt.Sprintf("<=%d", h.bounds[i])
		} else {
			label = fmt.Sprintf("> %d", h.bounds[len(h.bounds)-1])
		}
		bar := strings.Repeat("#", int(40*c/maxC))
		fmt.Fprintf(&b, "  %10s %9d %5.1f%% %s\n", label, c, 100*float64(c)/float64(h.total), bar)
	}
	return b.String()
}
