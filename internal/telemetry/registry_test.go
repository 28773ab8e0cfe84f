package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/stats"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestRegistryCounterGaugeGroup(t *testing.T) {
	r := NewRegistry()
	c := stats.NewCounter("c")
	c.Add(3)
	r.AddCounter("pfs_x_total", "X events.", nil, c)
	r.AddGaugeFunc("pfs_g", "A gauge.", Labels{"b": "2", "a": "1"}, func() float64 { return 1.5 })
	g := stats.NewGroup("g")
	g.Member("d0")
	g.Member("d1")
	g.Add(1, 7)
	r.AddGroup("pfs_m_total", "Per-member.", "member", nil, g)

	out := render(t, r)
	for _, want := range []string{
		"# HELP pfs_x_total X events.\n",
		"# TYPE pfs_x_total counter\n",
		"pfs_x_total 3\n",
		"# TYPE pfs_g gauge\n",
		`pfs_g{a="1",b="2"} 1.5` + "\n", // label keys sorted
		`pfs_m_total{member="d0"} 0` + "\n",
		`pfs_m_total{member="d1"} 7` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// Families render sorted by name.
	if strings.Index(out, "pfs_g") > strings.Index(out, "pfs_x_total") {
		t.Fatalf("families not sorted:\n%s", out)
	}
}

func TestRegistryHistogramCumulative(t *testing.T) {
	r := NewRegistry()
	h := stats.NewLogHistogram("h", time.Second, 2, 2) // bounds 1s, 2s
	h.Observe(500 * time.Millisecond)
	h.Observe(1500 * time.Millisecond)
	h.Observe(time.Hour)
	r.AddDurationHistogram("pfs_h_seconds", "H.", nil, h)
	out := render(t, r)
	for _, want := range []string{
		"# TYPE pfs_h_seconds histogram\n",
		`pfs_h_seconds_bucket{le="1"} 1` + "\n",
		`pfs_h_seconds_bucket{le="2"} 2` + "\n",
		`pfs_h_seconds_bucket{le="+Inf"} 3` + "\n",
		"pfs_h_seconds_count 3\n",
		"pfs_h_seconds_sum 3602\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRegistrySummaries(t *testing.T) {
	r := NewRegistry()
	h := stats.NewLatencyHistogram("h")
	h.Observe(10 * time.Millisecond)
	r.AddHistogramSummary("pfs_hs_seconds", "HS.", nil, h)
	out := render(t, r)
	for _, want := range []string{
		"# TYPE pfs_hs_seconds summary\n",
		`pfs_hs_seconds{quantile="0.99"}`,
		"pfs_hs_seconds_sum 0.01\n",
		"pfs_hs_seconds_count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRegistryTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.AddCounter("pfs_x", "X.", nil, stats.NewCounter("c"))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on type mismatch")
		}
	}()
	r.AddGaugeFunc("pfs_x", "X.", nil, func() float64 { return 0 })
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.AddGaugeFunc("pfs_e", "E.", Labels{"p": "a\\b\"c\nd"}, func() float64 { return 1 })
	out := render(t, r)
	if !strings.Contains(out, `pfs_e{p="a\\b\"c\nd"} 1`+"\n") {
		t.Fatalf("escaping wrong:\n%s", out)
	}
}

// Scrapes must be safe concurrently with registration and updates.
func TestRegistryConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	c := stats.NewCounter("c")
	r.AddCounter("pfs_c_total", "C.", nil, c)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			c.Inc()
			r.AddGaugeFunc("pfs_reg_during_scrape", "R.", Labels{"i": "x"}, func() float64 { return 0 })
		}
		close(stop)
	}()
	for {
		render(t, r)
		select {
		case <-stop:
			wg.Wait()
			return
		default:
		}
	}
}
