// Package experiments regenerates the paper's evaluation: Figures
// 2-4 (cumulative latency distributions for traces 1a, 1b and 5
// under the four write policies), Figure 5 (mean latencies for every
// trace), the in-text claims, and the ablation suite.
// Both cmd/experiments and the root benchmark suite drive it.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/patsy"
	"repro/internal/trace"
)

// Scale sizes an experiment: the paper's full Sun 4/280 replay, or a
// shrunken rig for quick runs and benchmarks.
type Scale struct {
	Name        string
	Buses       int
	DisksPerBus []int
	Volumes     int
	CacheBlocks int
	NVRAMBlocks int
	Duration    time.Duration
	// Work-load overrides (0 keeps the profile's own value).
	Clients      int
	LargeWriters int
	Preexist     int
}

// PaperScale reproduces the paper's topology: 3 SCSI-2 buses, 10
// HP 97560 disks, 14 volumes, 64 MB cache, 4 MB NVRAM. Traces run 30
// simulated minutes by default (the paper replays 24 h; the shapes
// stabilize long before).
func PaperScale() Scale {
	return Scale{
		Name:        "paper",
		Buses:       3,
		DisksPerBus: []int{4, 3, 3},
		Volumes:     14,
		CacheBlocks: 16384,
		NVRAMBlocks: patsy.NVRAMBlocks4MB,
		Duration:    30 * time.Minute,
	}
}

// QuickScale is the benchmark rig: 1 bus, 2 disks, 4 volumes, 4 MB
// cache, 512 KB NVRAM, 2-minute traces.
func QuickScale() Scale {
	return Scale{
		Name:         "quick",
		Buses:        1,
		DisksPerBus:  []int{2},
		Volumes:      4,
		CacheBlocks:  1024,
		NVRAMBlocks:  128,
		Duration:     2 * time.Minute,
		Clients:      8,
		LargeWriters: 4,
		Preexist:     40,
	}
}

// Config builds the simulator configuration for one policy run.
func (s Scale) Config(seed int64, flush cache.FlushConfig) patsy.Config {
	cfg := patsy.DefaultConfig(seed, flush)
	cfg.Buses = s.Buses
	cfg.DisksPerBus = s.DisksPerBus
	cfg.Volumes = s.Volumes
	cfg.CacheBlocks = s.CacheBlocks
	return cfg
}

// Trace generates the named profile at this scale.
func (s Scale) Trace(name string, seed int64) []trace.Record {
	p, ok := trace.Profiles()[name]
	if !ok {
		panic(fmt.Sprintf("experiments: unknown trace %q", name))
	}
	p.Volumes = s.Volumes
	if p.HotVolumes >= s.Volumes {
		p.HotVolumes = 1
	}
	if s.Clients > 0 {
		p.Clients = s.Clients
	}
	if s.LargeWriters > 0 && p.LargeWriters > 0 {
		p.LargeWriters = s.LargeWriters
	}
	if s.Preexist > 0 {
		p.PreexistingFiles = s.Preexist
	}
	return trace.Generate(p, seed, s.Duration)
}

// Policies returns the paper's four write policies at this scale's
// NVRAM size: write-delay (30 s update), UPS write-saving, NVRAM
// whole-file and NVRAM partial-file.
func (s Scale) Policies() []cache.FlushConfig {
	return []cache.FlushConfig{
		cache.WriteDelay(),
		cache.UPS(),
		cache.NVRAMWhole(s.NVRAMBlocks),
		cache.NVRAMPartial(s.NVRAMBlocks),
	}
}

// PolicyRun is one (policy, trace) simulation.
type PolicyRun struct {
	Policy string
	Report *patsy.Report
}

// RunTrace replays one trace under every policy, one concurrent
// simulation per policy. Results come back in policy order, so the
// rendered figures match RunTraceSequential byte for byte.
func RunTrace(s Scale, traceName string, seed int64) ([]PolicyRun, error) {
	return RunTraceWith(Parallel(), s, traceName, seed)
}

// RunTraceWith is RunTrace on an explicit engine.
func RunTraceWith(e *Engine, s Scale, traceName string, seed int64) ([]PolicyRun, error) {
	results, err := e.RunMatrix(Matrix{
		Scale:  s,
		Traces: []string{traceName},
		Seeds:  []int64{seed},
	})
	if err != nil {
		return nil, err
	}
	out := make([]PolicyRun, len(results))
	for i, r := range results {
		out[i] = PolicyRun{Policy: r.Cell.Policy, Report: r.Report}
	}
	return out, nil
}

// RunTraceSequential is the pre-engine reference path: a plain loop
// over the policies on the caller's goroutine. The integration tests
// assert the parallel engine reproduces its output exactly.
func RunTraceSequential(s Scale, traceName string, seed int64) ([]PolicyRun, error) {
	recs := s.Trace(traceName, seed)
	var out []PolicyRun
	for _, fc := range s.Policies() {
		rep, err := patsy.Run(s.Config(seed, fc), traceName, recs)
		if err != nil {
			return nil, fmt.Errorf("trace %s policy %s: %w", traceName, fc.Name, err)
		}
		out = append(out, PolicyRun{Policy: fc.Name, Report: rep})
	}
	return out, nil
}

// FigureCDF renders a Figure 2-4 style report: the cumulative
// distribution of operation latencies per policy, with the regions
// the paper narrates annotated.
func FigureCDF(figure, traceName string, runs []PolicyRun) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: cumulative distribution of file-system latencies, trace %s\n", figure, traceName)
	fmt.Fprintf(&b, "(<=2ms: cache-served floor; 2-17ms: rotation+overhead; ~17ms bump: full rotation; beyond: queueing)\n\n")
	grid := []time.Duration{
		1 * time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond,
		10 * time.Millisecond, 17 * time.Millisecond, 25 * time.Millisecond,
		50 * time.Millisecond, 100 * time.Millisecond, 250 * time.Millisecond,
		500 * time.Millisecond, time.Second,
	}
	fmt.Fprintf(&b, "%-16s", "latency<=")
	for _, g := range grid {
		fmt.Fprintf(&b, "%8s", g)
	}
	fmt.Fprintf(&b, "%10s%8s\n", "mean", "ops")
	for _, r := range runs {
		fmt.Fprintf(&b, "%-16s", r.Policy)
		for _, g := range grid {
			fmt.Fprintf(&b, "%8.3f", r.Report.Result.Overall.FracBelow(g))
		}
		fmt.Fprintf(&b, "%10s%8d\n",
			r.Report.MeanLatency().Round(time.Microsecond), r.Report.WallOps)
	}
	fmt.Fprintf(&b, "\nper-policy detail: read-hit-rate / blocks-flushed / writes-saved / nvram-waits\n")
	for _, r := range runs {
		fmt.Fprintf(&b, "  %-16s %5.1f%% / %d / %d / %d\n", r.Policy,
			100*r.Report.ReadHit, r.Report.Flushed, r.Report.Saved, r.Report.NVRAMWaits)
	}
	return b.String()
}

// Fig5Row is one trace's row in Figure 5.
type Fig5Row struct {
	Trace string
	Runs  []PolicyRun
}

// RunFigure5 replays every trace under every policy as one flat
// parallel batch — the whole figure is a single matrix of
// independent simulations.
func RunFigure5(s Scale, seed int64, traces []string) ([]Fig5Row, error) {
	return RunFigure5With(Parallel(), s, seed, traces)
}

// RunFigure5With is RunFigure5 on an explicit engine.
func RunFigure5With(e *Engine, s Scale, seed int64, traces []string) ([]Fig5Row, error) {
	if len(traces) == 0 {
		traces = trace.ProfileNames()
	}
	results, err := e.RunMatrix(Matrix{
		Scale:  s,
		Traces: traces,
		Seeds:  []int64{seed},
	})
	if err != nil {
		return nil, err
	}
	// Jobs expand trace-major, so the flat results regroup into rows
	// by consecutive runs of the trace name.
	var rows []Fig5Row
	for _, r := range results {
		if len(rows) == 0 || rows[len(rows)-1].Trace != r.Cell.Trace {
			rows = append(rows, Fig5Row{Trace: r.Cell.Trace})
		}
		row := &rows[len(rows)-1]
		row.Runs = append(row.Runs, PolicyRun{Policy: r.Cell.Policy, Report: r.Report})
	}
	return rows, nil
}

// RunFigure5Sequential is the pre-engine reference path for the full
// figure, one trace after another on the caller's goroutine.
func RunFigure5Sequential(s Scale, seed int64, traces []string) ([]Fig5Row, error) {
	if len(traces) == 0 {
		traces = trace.ProfileNames()
	}
	var rows []Fig5Row
	for _, tn := range traces {
		runs, err := RunTraceSequential(s, tn, seed)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig5Row{Trace: tn, Runs: runs})
	}
	return rows, nil
}

// Figure5 renders the mean-latency matrix plus the paper's claim
// checks.
func Figure5(rows []Fig5Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: mean file-system latencies, all traces × all policies\n\n")
	if len(rows) == 0 {
		return b.String()
	}
	fmt.Fprintf(&b, "%-8s", "trace")
	for _, r := range rows[0].Runs {
		fmt.Fprintf(&b, "%16s", r.Policy)
	}
	fmt.Fprintf(&b, "\n")
	for _, row := range rows {
		fmt.Fprintf(&b, "%-8s", row.Trace)
		for _, r := range row.Runs {
			fmt.Fprintf(&b, "%16s", r.Report.MeanLatency().Round(time.Microsecond))
		}
		fmt.Fprintf(&b, "\n")
	}
	b.WriteString("\n")
	b.WriteString(ClaimChecks(rows))
	return b.String()
}

// ClaimChecks verifies the paper's narrated results against the
// measured runs and reports each as PASS/fail text.
func ClaimChecks(rows []Fig5Row) string {
	var b strings.Builder
	get := func(row Fig5Row, policy string) *patsy.Report {
		for _, r := range row.Runs {
			if r.Policy == policy {
				return r.Report
			}
		}
		return nil
	}
	check := func(name string, ok bool, detail string) {
		status := "PASS"
		if !ok {
			status = "MISS"
		}
		fmt.Fprintf(&b, "  [%s] %s — %s\n", status, name, detail)
	}

	// Claim 1: UPS beats write-delay on most traces ("in general,
	// the UPS experiment performs better...").
	upsWins := 0
	for _, row := range rows {
		ups, wd := get(row, "ups"), get(row, "writedelay")
		if ups != nil && wd != nil && ups.MeanLatency() < wd.MeanLatency() {
			upsWins++
		}
	}
	check("UPS faster than write-delay (majority of traces)",
		upsWins*2 > len(rows),
		fmt.Sprintf("%d of %d traces", upsWins, len(rows)))

	// Claim 2: whole-file NVRAM flush beats partial-file. On traces
	// whose NVRAM never fills the two are identical, so a 5% band
	// counts as consistent.
	wholeWins := 0
	for _, row := range rows {
		w, p := get(row, "nvram-whole"), get(row, "nvram-partial")
		if w != nil && p != nil &&
			float64(w.MeanLatency()) <= 1.05*float64(p.MeanLatency()) {
			wholeWins++
		}
	}
	check("whole-file NVRAM flush <= partial-file (majority, 5% band)",
		wholeWins*2 > len(rows),
		fmt.Sprintf("%d of %d traces", wholeWins, len(rows)))

	// Claim 3: write-saving writes fewer blocks to disk. Checked on
	// the total and on a majority of traces: a write-flooded trace
	// whose files outlive the window can tie.
	fewer, traced := 0, 0
	var fUPS, fWD int64
	for _, row := range rows {
		ups, wd := get(row, "ups"), get(row, "writedelay")
		if ups == nil || wd == nil {
			continue
		}
		traced++
		fUPS += ups.Flushed
		fWD += wd.Flushed
		if ups.Flushed < wd.Flushed {
			fewer++
		}
	}
	check("UPS writes fewer blocks than write-delay",
		fUPS < fWD && fewer*2 > traced,
		fmt.Sprintf("total %d vs %d blocks; fewer on %d of %d traces", fUPS, fWD, fewer, traced))

	// Claim 4: write-saving lowers read cache hit rates (trades
	// hits for fewer writes) yet still wins overall.
	lower := 0
	total := 0
	for _, row := range rows {
		ups, wd := get(row, "ups"), get(row, "writedelay")
		if ups == nil || wd == nil {
			continue
		}
		total++
		if ups.ReadHit <= wd.ReadHit+0.02 {
			lower++
		}
	}
	check("UPS read hit rate not above write-delay's (cache clutter)",
		lower*2 >= total, fmt.Sprintf("%d of %d traces", lower, total))

	// Claim 5: trace 1b bottlenecks the NVRAM ("new writes are
	// waiting for the NVRAM to drain").
	for _, row := range rows {
		if row.Trace != "1b" {
			continue
		}
		nv := get(row, "nvram-partial")
		if nv != nil {
			check("trace 1b: writes wait for NVRAM drain",
				nv.NVRAMWaits > 0,
				fmt.Sprintf("%d NVRAM stalls", nv.NVRAMWaits))
		}
	}
	return b.String()
}

// SortRunsByMean orders runs fastest-first (reporting convenience).
func SortRunsByMean(runs []PolicyRun) {
	sort.Slice(runs, func(i, j int) bool {
		return runs[i].Report.MeanLatency() < runs[j].Report.MeanLatency()
	})
}

// RenderIntervals prints the 15-minute interval reports of a run.
func RenderIntervals(r *patsy.Report) string {
	var b strings.Builder
	for _, iv := range r.Result.Intervals.Reports {
		fmt.Fprintf(&b, "  %s\n", iv)
	}
	return b.String()
}

// FullCDF returns the complete Render of a run's distribution (the
// plottable form of Figures 2-4).
func FullCDF(r *patsy.Report) string { return r.Result.Overall.Render() }
