package experiments

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/patsy"
	"repro/internal/trace"
)

// RunTraceSequential is the pre-engine reference path: a plain loop
// over the policies on the caller's goroutine. The tests in this file
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

// TestFigure5ParallelMatchesSequential regenerates Figure 5 — every
// trace under every policy — both ways and compares the rendered
// figure byte for byte.
func TestFigure5ParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure 5 in -short mode")
	}
	s := tinyScale()
	seqRows, err := RunFigure5Sequential(s, DefaultSeed, nil)
	if err != nil {
		t.Fatalf("sequential figure 5: %v", err)
	}
	parRows, err := RunFigure5With(&Engine{Workers: 8}, s, DefaultSeed, nil)
	if err != nil {
		t.Fatalf("parallel figure 5: %v", err)
	}
	seqFig := Figure5(seqRows)
	parFig := Figure5(parRows)
	if seqFig != parFig {
		t.Fatalf("figure 5 diverges between engines:\n--- sequential ---\n%s\n--- parallel ---\n%s", seqFig, parFig)
	}
	// The figure must be a real figure, not agreeing emptiness.
	for _, want := range []string{"Figure 5", "writedelay", "ups", "1b", "5"} {
		if !strings.Contains(seqFig, want) {
			t.Fatalf("figure 5 missing %q:\n%s", want, seqFig)
		}
	}
}

// TestFigureCDFParallelMatchesSequential regenerates the Figure 2
// latency CDF (trace 1a, four policies) both ways, comparing the
// summary figure and the full plottable CDF of every policy.
func TestFigureCDFParallelMatchesSequential(t *testing.T) {
	s := tinyScale()
	seqRuns, err := RunTraceSequential(s, "1a", DefaultSeed)
	if err != nil {
		t.Fatalf("sequential trace 1a: %v", err)
	}
	parRuns, err := RunTraceWith(&Engine{Workers: 4}, s, "1a", DefaultSeed)
	if err != nil {
		t.Fatalf("parallel trace 1a: %v", err)
	}
	seqFig := FigureCDF("Figure 2", "1a", seqRuns)
	parFig := FigureCDF("Figure 2", "1a", parRuns)
	if seqFig != parFig {
		t.Fatalf("figure 2 diverges between engines:\n--- sequential ---\n%s\n--- parallel ---\n%s", seqFig, parFig)
	}
	if len(seqRuns) != len(parRuns) {
		t.Fatalf("run counts differ: %d vs %d", len(seqRuns), len(parRuns))
	}
	for i := range seqRuns {
		seqCDF := seqRuns[i].Report.Result.Overall.Render()
		parCDF := parRuns[i].Report.Result.Overall.Render()
		if seqCDF != parCDF {
			t.Fatalf("policy %s: full CDF diverges:\n--- sequential ---\n%s\n--- parallel ---\n%s",
				seqRuns[i].Policy, seqCDF, parCDF)
		}
	}
}

// BenchmarkFig5AllTracesSequential is the pre-engine reference path,
// the A side of the parallel engine's wall-clock comparison (the root
// package's BenchmarkFig5AllTraces is the B side).
func BenchmarkFig5AllTracesSequential(b *testing.B) {
	s := tinyScale()
	for i := 0; i < b.N; i++ {
		if _, err := RunFigure5Sequential(s, DefaultSeed, nil); err != nil {
			b.Fatal(err)
		}
	}
}
