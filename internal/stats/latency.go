package stats

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// LatencyDist records every sample of an operation latency so that
// exact cumulative distributions — the paper's Figures 2-4 — can be
// produced. Samples are durations in nanoseconds, kept in one slice
// that a query sorts in place when observations have arrived since
// the last sort.
type LatencyDist struct {
	name    string
	mu      sync.Mutex
	samples []int64
	sum     int64
	sorted  bool // samples is in ascending order
}

// NewLatencyDist returns a named latency distribution.
func NewLatencyDist(name string) *LatencyDist {
	return &LatencyDist{name: name}
}

// Observe records one latency.
func (d *LatencyDist) Observe(lat time.Duration) {
	d.mu.Lock()
	d.samples = append(d.samples, int64(lat))
	d.sum += int64(lat)
	d.sorted = false
	d.mu.Unlock()
}

// sortLocked orders the samples for a query. Caller holds d.mu.
func (d *LatencyDist) sortLocked() {
	if !d.sorted {
		slices.Sort(d.samples)
		d.sorted = true
	}
}

// N returns the sample count.
func (d *LatencyDist) N() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.samples)
}

// Name returns the distribution's name.
func (d *LatencyDist) Name() string { return d.name }

// Mean returns the mean latency.
func (d *LatencyDist) Mean() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.meanLocked()
}

func (d *LatencyDist) meanLocked() time.Duration {
	if len(d.samples) == 0 {
		return 0
	}
	return time.Duration(d.sum / int64(len(d.samples)))
}

// Quantile returns the q-quantile latency (0 <= q <= 1).
func (d *LatencyDist) Quantile(q float64) time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.sortLocked()
	return d.quantileLocked(q)
}

func (d *LatencyDist) quantileLocked(q float64) time.Duration {
	if len(d.samples) == 0 {
		return 0
	}
	i := int(q * float64(len(d.samples)-1))
	if i < 0 {
		i = 0
	}
	if i >= len(d.samples) {
		i = len(d.samples) - 1
	}
	return time.Duration(d.samples[i])
}

// FracBelow returns the fraction of operations that completed within
// lat — one point of the cumulative distribution.
func (d *LatencyDist) FracBelow(lat time.Duration) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.sortLocked()
	return d.fracBelowLocked(lat)
}

func (d *LatencyDist) fracBelowLocked(lat time.Duration) float64 {
	if len(d.samples) == 0 {
		return 0
	}
	i := sort.Search(len(d.samples), func(i int) bool { return d.samples[i] > int64(lat) })
	return float64(i) / float64(len(d.samples))
}

// DefaultCDFGrid is the latency grid the figure harness evaluates
// CDFs on: fine resolution through the rotational region (the paper
// discusses the 2 ms cache floor and the 17 ms full-rotation bump),
// then coarser out to the queueing tail.
func DefaultCDFGrid() []time.Duration {
	var grid []time.Duration
	for ms := 1; ms <= 30; ms++ { // 1..30ms at 1ms
		grid = append(grid, time.Duration(ms)*time.Millisecond)
	}
	for ms := 35; ms <= 100; ms += 5 {
		grid = append(grid, time.Duration(ms)*time.Millisecond)
	}
	for ms := 125; ms <= 500; ms += 25 {
		grid = append(grid, time.Duration(ms)*time.Millisecond)
	}
	for ms := 600; ms <= 2000; ms += 100 {
		grid = append(grid, time.Duration(ms)*time.Millisecond)
	}
	return grid
}

// Render prints the CDF as a two-column table followed by mean and
// selected quantiles, the plotted form of Figures 2-4.
func (d *LatencyDist) Render() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.sortLocked()
	var b strings.Builder
	fmt.Fprintf(&b, "%s: n=%d mean=%v p50=%v p90=%v p99=%v\n",
		d.name, len(d.samples), d.meanLocked().Round(time.Microsecond),
		d.quantileLocked(0.50).Round(time.Microsecond),
		d.quantileLocked(0.90).Round(time.Microsecond),
		d.quantileLocked(0.99).Round(time.Microsecond))
	for _, lat := range DefaultCDFGrid() {
		frac := d.fracBelowLocked(lat)
		if frac >= 0.9999 && lat > d.quantileLocked(1.0) {
			break
		}
		fmt.Fprintf(&b, "  %8s %7.4f %s\n", lat, frac, strings.Repeat("*", int(60*frac)))
	}
	return b.String()
}

// Merge folds other's samples into d.
func (d *LatencyDist) Merge(other *LatencyDist) {
	other.mu.Lock()
	samples, sum := slices.Clone(other.samples), other.sum
	other.mu.Unlock()
	d.mu.Lock()
	d.samples = append(d.samples, samples...)
	d.sum += sum
	d.sorted = false
	d.mu.Unlock()
}

// Reset discards all samples.
func (d *LatencyDist) Reset() {
	d.mu.Lock()
	d.samples = d.samples[:0]
	d.sum = 0
	d.mu.Unlock()
}
