package main

import (
	"runtime"
	"slices"
	"syscall"
	"time"
)

// metricDef names one reported metric. BENCHMARK.json at the root of
// the repository carries the same names, units and bounds; the test
// suite keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an
	// end-to-end metric may worsen (0 for per-layer metrics).
	Bound float64
}

// endToEnd lists what a user of PFS or Patsy sees. Every workload
// reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"op_p99_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.03},
	{"alloc_kb_per_op", "KB", "lower", 0.04},
	{"live_heap_mb", "MB", "lower", 0.05},
}

// sample is what one measured window yields.
type sample struct {
	// Phase is the set-up (0, 1, 2) the window was measured after.
	Phase     int     `json:"phase"`
	Ops       int     `json:"ops"`
	WallS     float64 `json:"wall_s"`
	OpsPerS   float64 `json:"ops_per_s"`
	P50us     float64 `json:"op_p50_us"`
	P99us     float64 `json:"op_p99_us"`
	CPUus     float64 `json:"cpu_us_per_op"`
	Allocs    float64 `json:"allocs_per_op"`
	AllocKB   float64 `json:"alloc_kb_per_op"`
	MeanLatUs float64 `json:"op_mean_us"`
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure runs one window and charges it its own wall time, CPU time
// and heap allocation. run returns the op count and the per-op
// latencies in nanoseconds (any order; sorted here, outside the
// timed region). A non-nil pool collects the latencies of every
// window for the run's own percentiles.
func measure(pool *[]int64, run func() (ops int, latNS []int64)) sample {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	t0 := time.Now()
	ops, lat := run()
	wall := time.Since(t0)
	c1 := cpuTime()
	runtime.ReadMemStats(&m1)

	s := sample{Ops: ops, WallS: wall.Seconds()}
	if ops == 0 {
		return s
	}
	n := float64(ops)
	s.OpsPerS = n / wall.Seconds()
	s.CPUus = float64((c1 - c0).Microseconds()) / n
	s.Allocs = float64(m1.Mallocs-m0.Mallocs) / n
	s.AllocKB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / n
	slices.Sort(lat)
	s.P50us = percentileNS(lat, 0.50)
	s.P99us = percentileNS(lat, 0.99)
	var sum int64
	for _, v := range lat {
		sum += v
	}
	if len(lat) > 0 {
		s.MeanLatUs = float64(sum) / float64(len(lat)) / 1e3
	}
	if pool != nil {
		*pool = append(*pool, lat...)
	}
	return s
}

// measurePhase runs windows until budget is used up, to the nearest
// whole window and at least one. A run measures in one phase after
// each of its set-ups, so its windows are spread over the run's whole
// wall time and over three independently built servers, not taken
// from one contiguous stretch of one.
func measurePhase(phase int, budget time.Duration, window func() sample) []sample {
	var ws []sample
	for start := time.Now(); ; {
		w := window()
		w.Phase = phase
		ws = append(ws, w)
		el := time.Since(start)
		if el+el/time.Duration(2*len(ws)) >= budget {
			return ws
		}
	}
}

// medianOf folds the windows of a run into the reported figure.
func medianOf(ws []sample, f func(sample) float64) float64 {
	vs := make([]float64, len(ws))
	for i, w := range ws {
		vs[i] = f(w)
	}
	return median(vs)
}

// liveHeapMB is the heap still reachable after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
