package stats

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// Var returns the sample variance.
func (m *Moments) Var() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.varLocked()
}

func TestCounter(t *testing.T) {
	c := NewCounter("ops")
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Fatalf("counter = %d, want 10", c.Value())
	}
	if c.Name() != "ops" || !strings.Contains(c.String(), "ops=10") {
		t.Fatalf("bad render %q", c.String())
	}
}

func TestMomentsKnownValues(t *testing.T) {
	m := NewMoments("x")
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		m.Observe(v)
	}
	if m.N() != 8 || m.Mean() != 5 {
		t.Fatalf("n=%d mean=%v, want 8/5", m.N(), m.Mean())
	}
	// Sample variance of that classic set is 32/7.
	if math.Abs(m.Var()-32.0/7.0) > 1e-9 {
		t.Fatalf("var = %v, want %v", m.Var(), 32.0/7.0)
	}
	if m.Min() != 2 || m.Max() != 9 {
		t.Fatalf("min/max = %v/%v", m.Min(), m.Max())
	}
}

func TestMomentsEmpty(t *testing.T) {
	m := NewMoments("e")
	if m.Mean() != 0 || m.Var() != 0 || m.Min() != 0 || m.Max() != 0 {
		t.Fatal("empty moments should read as zero")
	}
}

// TestMomentsMatchesNaive cross-checks Welford against the direct
// two-pass computation on random data.
func TestMomentsMatchesNaive(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(100)
		xs := make([]float64, n)
		m := NewMoments("p")
		var sum float64
		for i := range xs {
			xs[i] = rng.NormFloat64()*100 + 50
			sum += xs[i]
			m.Observe(xs[i])
		}
		mean := sum / float64(n)
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		v := ss / float64(n-1)
		return math.Abs(m.Mean()-mean) < 1e-6 && math.Abs(m.Var()-v) < 1e-5
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram("q", 1, 2, 4, 8)
	for _, v := range []int64{0, 1, 1, 2, 3, 4, 5, 8, 9, 100} {
		h.Observe(v)
	}
	want := []int64{3, 1, 2, 2, 2} // <=1,<=2,<=4,<=8,>8
	_, counts, total, sum := h.Snapshot()
	for i, w := range want {
		if counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d", i, counts[i], w)
		}
	}
	if total != 10 || sum != 133 {
		t.Fatalf("total = %d, sum = %d, want 10 and 133", total, sum)
	}
}

func TestHistogramBadBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("descending bounds did not panic")
		}
	}()
	NewHistogram("bad", 5, 3)
}

func TestLinearHistogram(t *testing.T) {
	h := NewHistogram("lin", 10, 20, 30)
	h.Observe(10)
	h.Observe(11)
	h.Observe(31)
	_, counts, _, _ := h.Snapshot()
	if counts[0] != 1 || counts[1] != 1 || counts[3] != 1 {
		t.Fatalf("linear histogram buckets wrong: %v", h.String())
	}
}

func TestHistogramRender(t *testing.T) {
	h := NewHistogram("render", 1)
	h.Observe(1)
	s := h.String()
	if !strings.Contains(s, "render") || !strings.Contains(s, "100.0%") {
		t.Fatalf("render missing fields: %q", s)
	}
}

func TestLatencyDistBasics(t *testing.T) {
	d := NewLatencyDist("lat")
	for ms := 1; ms <= 100; ms++ {
		d.Observe(time.Duration(ms) * time.Millisecond)
	}
	if d.N() != 100 {
		t.Fatalf("n = %d", d.N())
	}
	if d.Mean() != 50500*time.Microsecond {
		t.Fatalf("mean = %v, want 50.5ms", d.Mean())
	}
	if got := d.FracBelow(10 * time.Millisecond); got != 0.10 {
		t.Fatalf("FracBelow(10ms) = %v, want 0.10", got)
	}
	if got := d.FracBelow(time.Second); got != 1.0 {
		t.Fatalf("FracBelow(1s) = %v, want 1", got)
	}
	if q := d.Quantile(0.5); q < 50*time.Millisecond || q > 51*time.Millisecond {
		t.Fatalf("median = %v", q)
	}
}

func TestLatencyDistEmpty(t *testing.T) {
	d := NewLatencyDist("e")
	if d.Mean() != 0 || d.Quantile(0.5) != 0 || d.FracBelow(time.Second) != 0 {
		t.Fatal("empty distribution should read as zero")
	}
}

// TestCDFMonotone is the defining property of a CDF: nondecreasing
// in the latency argument, between 0 and 1.
func TestCDFMonotone(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := NewLatencyDist("p")
		for i := 0; i < 200; i++ {
			d.Observe(time.Duration(rng.Intn(40)) * time.Millisecond)
		}
		prev := -1.0
		for _, lat := range DefaultCDFGrid() {
			frac := d.FracBelow(lat)
			if frac < prev || frac < 0 || frac > 1 {
				return false
			}
			prev = frac
		}
		return prev == 1.0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyMergeAndReset(t *testing.T) {
	a := NewLatencyDist("a")
	b := NewLatencyDist("b")
	a.Observe(time.Millisecond)
	b.Observe(3 * time.Millisecond)
	a.Merge(b)
	if a.N() != 2 || a.Mean() != 2*time.Millisecond {
		t.Fatalf("merge: n=%d mean=%v", a.N(), a.Mean())
	}
	// A fresh distribution is the reset state: merged into one, a
	// distribution keeps its count and mean.
	r := NewLatencyDist("r")
	if r.N() != 0 || r.Mean() != 0 {
		t.Fatal("fresh dist not empty")
	}
	r.Merge(a)
	if r.N() != 2 || r.Mean() != 2*time.Millisecond {
		t.Fatalf("merge into empty: n=%d mean=%v", r.N(), r.Mean())
	}
}

func TestLatencyRenderShape(t *testing.T) {
	d := NewLatencyDist("ops")
	d.Observe(500 * time.Microsecond)
	d.Observe(17 * time.Millisecond)
	out := d.Render()
	if !strings.Contains(out, "ops: n=2") {
		t.Fatalf("render header missing: %q", out)
	}
	if !strings.Contains(out, "1ms") {
		t.Fatalf("render grid missing: %q", out)
	}
}

func TestIntervalTracker(t *testing.T) {
	tr := NewIntervalTracker()
	tr.Observe(10 * time.Millisecond)
	tr.Observe(30 * time.Millisecond)
	r := tr.Cut(15 * time.Minute)
	if r.Ops != 2 || r.MeanLat != 20*time.Millisecond {
		t.Fatalf("interval 1: %+v", r)
	}
	r2 := tr.Cut(30 * time.Minute)
	if r2.Ops != 0 || r2.Start != 15*time.Minute {
		t.Fatalf("interval 2: %+v", r2)
	}
	if len(tr.Reports) != 2 {
		t.Fatalf("reports = %d", len(tr.Reports))
	}
	if !strings.Contains(r.String(), "ops=2") {
		t.Fatalf("render: %q", r.String())
	}
}

func TestQuantileOrderedProperty(t *testing.T) {
	prop := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		d := NewLatencyDist("p")
		for _, v := range raw {
			d.Observe(time.Duration(v % 1e6))
		}
		qs := []float64{0, 0.25, 0.5, 0.75, 0.9, 0.99, 1}
		vals := make([]time.Duration, len(qs))
		for i, q := range qs {
			vals[i] = d.Quantile(q)
		}
		return sort.SliceIsSorted(vals, func(i, j int) bool { return vals[i] < vals[j] }) ||
			isNonDecreasing(vals)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func isNonDecreasing(v []time.Duration) bool {
	for i := 1; i < len(v); i++ {
		if v[i] < v[i-1] {
			return false
		}
	}
	return true
}
