package stats

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// N returns the sample count.
func (d *LatencyDist) N() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.samples)
}

// Interleaving queries with observations must not change what the
// distribution reports: re-sorting after each query is equivalent to
// observing everything up front.
func TestLatencyDistInterleavedQueriesEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	samples := make([]time.Duration, 5000)
	for i := range samples {
		samples[i] = time.Duration(rng.Intn(1_000_000)) * time.Microsecond
	}
	plain := NewLatencyDist("plain")
	polled := NewLatencyDist("polled")
	for i, s := range samples {
		plain.Observe(s)
		polled.Observe(s)
		if i%37 == 0 { // force a mid-stream sort on one of them
			polled.Quantile(0.5)
			polled.FracBelow(time.Millisecond)
		}
	}
	if plain.N() != polled.N() {
		t.Fatalf("n: %d vs %d", plain.N(), polled.N())
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
		if a, b := plain.Quantile(q), polled.Quantile(q); a != b {
			t.Fatalf("q%.2f: %v vs %v", q, a, b)
		}
	}
	if a, b := plain.Mean(), polled.Mean(); a != b {
		t.Fatalf("mean: %v vs %v", a, b)
	}
	for _, at := range []time.Duration{time.Microsecond, time.Millisecond, 500 * time.Millisecond} {
		if a, b := plain.FracBelow(at), polled.FracBelow(at); a != b {
			t.Fatalf("frac(%v): %v vs %v", at, a, b)
		}
	}
}

// Concurrent observers and pollers: the shape a live server sees,
// with /metrics scraping summaries while the workload observes.
func TestLatencyDistConcurrentScrape(t *testing.T) {
	d := NewLatencyDist("t")
	const observers, perObserver = 4, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < observers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perObserver; i++ {
				d.Observe(time.Duration(g*perObserver+i) * time.Microsecond)
			}
		}(g)
	}
	var scrapes sync.WaitGroup
	for s := 0; s < 3; s++ {
		scrapes.Add(1)
		go func() {
			defer scrapes.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Quantiles from separate calls interleave with
				// observers, so only sanity is asserted here; the
				// race detector is the real check.
				for _, q := range []float64{0.5, 0.9, 0.99} {
					if v := d.Quantile(q); v < 0 {
						t.Errorf("negative quantile %v", v)
						return
					}
				}
				d.Mean()
				d.FracBelow(time.Millisecond)
				d.FracBelow(time.Second)
			}
		}()
	}
	wg.Wait()
	close(stop)
	scrapes.Wait()
	if n := d.N(); n != observers*perObserver {
		t.Fatalf("n = %d, want %d", n, observers*perObserver)
	}
	if d.Quantile(1) != time.Duration(observers*perObserver-1)*time.Microsecond {
		t.Fatalf("max = %v", d.Quantile(1))
	}
}

// LatencyDist.Reset is gone; the empty state it left is a fresh
// distribution, so the reset half checks Merge from and into one.
func TestLatencyDistMergeAndReset(t *testing.T) {
	a, b := NewLatencyDist("a"), NewLatencyDist("b")
	for i := 1; i <= 10; i++ {
		a.Observe(time.Duration(i) * time.Millisecond)
	}
	for i := 11; i <= 20; i++ {
		b.Observe(time.Duration(i) * time.Millisecond)
	}
	a.Merge(b)
	if a.N() != 20 {
		t.Fatalf("merged n = %d", a.N())
	}
	if a.Quantile(1) != 20*time.Millisecond || a.Quantile(0) != time.Millisecond {
		t.Fatalf("merged range [%v, %v]", a.Quantile(0), a.Quantile(1))
	}
	if a.Mean() != 10500*time.Microsecond {
		t.Fatalf("merged mean = %v, want 10.5ms", a.Mean())
	}
	if b.N() != 10 || b.Mean() != 15500*time.Microsecond {
		t.Fatalf("merge changed its source: n=%d mean=%v", b.N(), b.Mean())
	}
	a.Merge(NewLatencyDist("empty"))
	if a.N() != 20 || a.Mean() != 10500*time.Microsecond {
		t.Fatalf("merging an empty dist: n=%d mean=%v", a.N(), a.Mean())
	}
	c := NewLatencyDist("c")
	c.Merge(a)
	if c.N() != 20 || c.Mean() != a.Mean() || c.Quantile(0.5) != a.Quantile(0.5) {
		t.Fatalf("merge into an empty dist: n=%d mean=%v p50=%v", c.N(), c.Mean(), c.Quantile(0.5))
	}
}
