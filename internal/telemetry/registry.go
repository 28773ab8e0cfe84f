// Package telemetry exports the framework's statistics objects as
// live observables: a Prometheus-style metrics registry layered on
// internal/stats, a per-operation tracer that splits NFS latency
// into pipeline/cache/disk stages, and the pfsd admin HTTP server
// (/metrics, /healthz, /statusz, pprof).
//
// The package deliberately depends only on internal/stats and
// internal/sched so every subsystem can be wired into it without
// import cycles; the PFS-specific registration lives in internal/pfs.
//
// Everything here must be callable from plain goroutines (HTTP
// handlers): collectors may only read atomic counters and
// plain-mutex statistics objects, never state guarded by a kernel
// mutex — sched.Mutex needs a kernel task the scrape doesn't have.
package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/stats"
)

// Labels is one metric series' label set. Keys render sorted, so any
// map order yields the same exposition text.
type Labels map[string]string

// sample is one exposition line: name+suffix{labels} value.
type sample struct {
	suffix string
	labels string
	value  float64
}

// collector produces a family's samples at scrape time.
type collector func() []sample

type family struct {
	name       string
	help       string
	typ        string // counter | gauge | histogram | summary
	collectors []collector
}

// Registry maps stats objects to stable Prometheus families. All
// Add* calls with the same family name must agree on the type; each
// call contributes one series (or one expansion, for groups) to the
// family. Registration normally happens once at assembly; scraping
// is safe concurrently with registration and with the workload.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) add(name, help, typ string, c collector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ}
		r.families[name] = f
		r.order = append(r.order, name)
	} else if f.typ != typ {
		panic(fmt.Sprintf("telemetry: family %s registered as %s and %s", name, f.typ, typ))
	}
	f.collectors = append(f.collectors, c)
}

// AddCounter registers a stats.Counter as a counter series.
func (r *Registry) AddCounter(name, help string, labels Labels, c *stats.Counter) {
	ls := renderLabels(labels)
	r.add(name, help, "counter", func() []sample {
		return []sample{{labels: ls, value: float64(c.Value())}}
	})
}

// AddCounterFunc registers a counter series computed at scrape time.
// fn must be monotonic and safe to call from a plain goroutine.
func (r *Registry) AddCounterFunc(name, help string, labels Labels, fn func() float64) {
	ls := renderLabels(labels)
	r.add(name, help, "counter", func() []sample {
		return []sample{{labels: ls, value: fn()}}
	})
}

// AddGaugeFunc registers a gauge series computed at scrape time.
// fn must be safe to call from a plain goroutine.
func (r *Registry) AddGaugeFunc(name, help string, labels Labels, fn func() float64) {
	ls := renderLabels(labels)
	r.add(name, help, "gauge", func() []sample {
		return []sample{{labels: ls, value: fn()}}
	})
}

// AddGroup registers a stats.Group as a counter family with one
// series per member, labelled key=<member label> (plus any fixed
// labels). Members added to the group after registration appear on
// the next scrape.
func (r *Registry) AddGroup(name, help, key string, labels Labels, g *stats.Group) {
	r.add(name, help, "counter", func() []sample {
		// Members only append, so the values, snapshotted second,
		// cover every label.
		members, vals := g.Labels(), g.Values()
		out := make([]sample, len(members))
		for i := range members {
			with := Labels{key: members[i]}
			for k, v := range labels {
				with[k] = v
			}
			out[i] = sample{labels: renderLabels(with), value: float64(vals[i])}
		}
		return out
	})
}

// AddDurationHistogram registers a stats.LogHistogram as a
// Prometheus histogram in seconds.
func (r *Registry) AddDurationHistogram(name, help string, labels Labels, h *stats.LogHistogram) {
	r.add(name, help, "histogram", func() []sample {
		bounds, counts, total, sum := h.Snapshot()
		return histogramSamples(labels, bounds, counts, total, float64(sum)/float64(time.Second), 1/float64(time.Second))
	})
}

// AddIntHistogram registers a stats.Histogram (unitless integer
// buckets — queue depths, sector counts) as a Prometheus histogram.
func (r *Registry) AddIntHistogram(name, help string, labels Labels, h *stats.Histogram) {
	r.add(name, help, "histogram", func() []sample {
		bounds, counts, total, sum := h.Snapshot()
		return histogramSamples(labels, bounds, counts, total, float64(sum), 1)
	})
}

// histogramSamples renders cumulative le-buckets plus _sum/_count.
// scale converts a native bound into the exported unit.
func histogramSamples(labels Labels, bounds, counts []int64, total int64, sum, scale float64) []sample {
	out := make([]sample, 0, len(counts)+2)
	var cum int64
	for i, c := range counts {
		cum += c
		le := "+Inf"
		if i < len(bounds) {
			le = formatValue(float64(bounds[i]) * scale)
		}
		with := Labels{"le": le}
		for k, v := range labels {
			with[k] = v
		}
		out = append(out, sample{suffix: "_bucket", labels: renderLabels(with), value: float64(cum)})
	}
	ls := renderLabels(labels)
	out = append(out,
		sample{suffix: "_sum", labels: ls, value: sum},
		sample{suffix: "_count", labels: ls, value: float64(total)})
	return out
}

// AddHistogramSummary registers a stats.LogHistogram as a Prometheus
// summary in seconds: quantiles interpolated from the log buckets
// plus exact _sum/_count (defaults to .5/.9/.99). For families whose
// stable shape is `name{op=...,quantile=...}` rather than le-buckets.
func (r *Registry) AddHistogramSummary(name, help string, labels Labels, h *stats.LogHistogram, quantiles ...float64) {
	if len(quantiles) == 0 {
		quantiles = []float64{0.5, 0.9, 0.99}
	}
	r.add(name, help, "summary", func() []sample {
		out := make([]sample, 0, len(quantiles)+2)
		for _, q := range quantiles {
			with := Labels{"quantile": formatValue(q)}
			for k, v := range labels {
				with[k] = v
			}
			out = append(out, sample{labels: renderLabels(with), value: h.Quantile(q).Seconds()})
		}
		ls := renderLabels(labels)
		_, _, total, sum := h.Snapshot()
		out = append(out,
			sample{suffix: "_sum", labels: ls, value: sum.Seconds()},
			sample{suffix: "_count", labels: ls, value: float64(total)})
		return out
	})
}

// AddMoments registers a stats.Moments as a summary with only
// _sum/_count (plus min/mean/max as 0/0.5/1 "quantiles" — the
// moments object keeps no distribution, but the extremes are exact).
// scale converts a native sample into the exported unit.
func (r *Registry) AddMoments(name, help string, labels Labels, m *stats.Moments, scale float64) {
	r.add(name, help, "summary", func() []sample {
		n := m.N()
		ls := renderLabels(labels)
		withQ := func(q string) string {
			with := Labels{"quantile": q}
			for k, v := range labels {
				with[k] = v
			}
			return renderLabels(with)
		}
		return []sample{
			{labels: withQ("0"), value: m.Min() * scale},
			{labels: withQ("0.5"), value: m.Mean() * scale},
			{labels: withQ("1"), value: m.Max() * scale},
			{suffix: "_sum", labels: ls, value: m.Mean() * float64(n) * scale},
			{suffix: "_count", labels: ls, value: float64(n)},
		}
	})
}

// WritePrometheus renders the whole registry in the Prometheus text
// exposition format, families sorted by name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	bw := bufio.NewWriter(w)
	for _, f := range fams {
		// Collectors run outside r.mu: they may take stats locks and
		// must never nest under the registry's.
		r.mu.Lock()
		colls := append([]collector(nil), f.collectors...)
		r.mu.Unlock()
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		for _, c := range colls {
			for _, s := range c() {
				fmt.Fprintf(bw, "%s%s%s %s\n", f.name, s.suffix, s.labels, formatValue(s.value))
			}
		}
	}
	return bw.Flush()
}

// Handler returns an http.Handler serving the registry at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// renderLabels renders a label set as {k="v",...} with sorted keys,
// or "" when empty.
func renderLabels(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatValue renders a float the way Prometheus clients do: exact
// integers without a fraction, +Inf/-Inf/NaN spelled out.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
