package experiments

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/patsy"
	"repro/internal/trace"
)

// This file is the parallel experiment engine. The paper's whole
// evaluation is a matrix of independent simulations — every cell owns
// its virtual-time kernel and its Patsy instance, statistics objects
// included, so cells can run concurrently on real CPUs while each
// simulation stays perfectly deterministic inside. The engine expands
// a Matrix (traces × variants × policies × seeds) into Jobs, executes
// them on a worker pool, and merges the results back in matrix order,
// so the rendered figures are byte-identical to a sequential run at
// the same seeds.

// Cell names one matrix position: which trace, which policy (or
// ablation variant), which seed.
type Cell struct {
	Trace   string
	Policy  string
	Variant string
	Seed    int64
}

func (c Cell) String() string {
	s := fmt.Sprintf("trace %s policy %s seed %d", c.Trace, c.Policy, c.Seed)
	if c.Variant != "" {
		s += " variant " + c.Variant
	}
	return s
}

// Job is one fully prepared simulation: a configuration plus the
// trace records to replay. Records are shared read-only between the
// jobs of one trace — the replayer copies before mutating — so
// expansion generates each (trace, seed) stream once.
type Job struct {
	Cell Cell
	Cfg  patsy.Config
	Recs []trace.Record
}

// JobResult pairs a job's cell with its report (or error).
type JobResult struct {
	Cell   Cell
	Report *patsy.Report
	Err    error
}

// Variant mutates a base configuration — the ablation axis of the
// matrix. A nil Mutate is the identity.
type Variant struct {
	Name   string
	Mutate func(*patsy.Config)
}

// Matrix is the full experiment grid. Zero-value axes default to
// sensible singletons: no Traces means all profiles, no Policies
// means the scale's four write policies, no Variants means identity,
// no Seeds means {DefaultSeed}.
type Matrix struct {
	Scale    Scale
	Traces   []string
	Policies []cache.FlushConfig
	Variants []Variant
	Seeds    []int64
}

// DefaultSeed is the paper's year, the seed every figure defaults to.
const DefaultSeed = 1996

type traceKey struct {
	name string
	seed int64
}

// Jobs expands the matrix in deterministic order — trace-major, then
// variant, then policy, then seed — generating each distinct
// (trace, seed) record stream exactly once (concurrently across
// streams).
func (m Matrix) Jobs() []Job {
	traces := m.Traces
	if len(traces) == 0 {
		traces = trace.ProfileNames()
	}
	policies := m.Policies
	if len(policies) == 0 {
		policies = m.Scale.Policies()
	}
	variants := m.Variants
	if len(variants) == 0 {
		variants = []Variant{{}}
	}
	seeds := m.Seeds
	if len(seeds) == 0 {
		seeds = []int64{DefaultSeed}
	}

	// Generate the distinct record streams concurrently.
	keys := make([]traceKey, 0, len(traces)*len(seeds))
	seen := make(map[traceKey]bool)
	for _, tn := range traces {
		for _, sd := range seeds {
			k := traceKey{tn, sd}
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	streams := make([][]trace.Record, len(keys))
	parallelDo(0, len(keys), func(i int) {
		streams[i] = m.Scale.Trace(keys[i].name, keys[i].seed)
	})
	recsFor := make(map[traceKey][]trace.Record, len(keys))
	for i, k := range keys {
		recsFor[k] = streams[i]
	}

	var jobs []Job
	for _, tn := range traces {
		for _, v := range variants {
			for _, fc := range policies {
				for _, sd := range seeds {
					cfg := m.Scale.Config(sd, fc)
					if v.Mutate != nil {
						v.Mutate(&cfg)
					}
					jobs = append(jobs, Job{
						Cell: Cell{Trace: tn, Policy: fc.Name, Variant: v.Name, Seed: sd},
						Cfg:  cfg,
						Recs: recsFor[traceKey{tn, sd}],
					})
				}
			}
		}
	}
	return jobs
}

// Engine executes jobs on a bounded worker pool. The zero value runs
// one worker per available CPU; Workers=1 degenerates to the
// sequential path, producing identical results.
type Engine struct {
	// Workers bounds concurrent simulations (0 = GOMAXPROCS).
	Workers int
}

// Sequential returns a one-worker engine — the reference path the
// parallel engine is tested against.
func Sequential() *Engine { return &Engine{Workers: 1} }

// Parallel returns an engine sized to the machine.
func Parallel() *Engine { return &Engine{} }

// workers resolves the pool size for n jobs.
func (e *Engine) workers(n int) int {
	w := e.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run executes every job and returns the results in job order. Every
// job runs to completion even when siblings fail; the returned error
// is the first failure in matrix order, so error reporting is as
// deterministic as the results.
func (e *Engine) Run(jobs []Job) ([]JobResult, error) {
	results := make([]JobResult, len(jobs))
	parallelDo(e.workers(len(jobs)), len(jobs), func(i int) {
		j := jobs[i]
		rep, err := patsy.Run(j.Cfg, j.Cell.Trace, j.Recs)
		if err != nil {
			err = fmt.Errorf("%s: %w", j.Cell, err)
		}
		results[i] = JobResult{Cell: j.Cell, Report: rep, Err: err}
	})
	for _, r := range results {
		if r.Err != nil {
			return results, r.Err
		}
	}
	return results, nil
}

// RunMatrix expands and executes a matrix in one call.
func (e *Engine) RunMatrix(m Matrix) ([]JobResult, error) {
	return e.Run(m.Jobs())
}

// parallelDo runs f(0..n-1) on a pool of workers and waits. A
// non-positive worker count means GOMAXPROCS. Iterations are handed
// out by an atomic counter, so workers stay busy regardless of how
// uneven individual jobs are.
func parallelDo(workers, n int, f func(int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

// --- Multi-seed replication ---

// Replicate aggregates one (trace, policy) cell across seeds.
type Replicate struct {
	Trace   string
	Policy  string
	Seeds   []int64
	Reports []*patsy.Report
}

// MeanLatency is the mean of the per-seed mean latencies.
func (r *Replicate) MeanLatency() time.Duration {
	if len(r.Reports) == 0 {
		return 0
	}
	var sum time.Duration
	for _, rep := range r.Reports {
		sum += rep.MeanLatency()
	}
	return sum / time.Duration(len(r.Reports))
}

// StderrLatency is the standard error of the per-seed means — the
// "± error" half-width of the replicated figure.
func (r *Replicate) StderrLatency() time.Duration {
	n := len(r.Reports)
	if n < 2 {
		return 0
	}
	mean := float64(r.MeanLatency())
	var ss float64
	for _, rep := range r.Reports {
		d := float64(rep.MeanLatency()) - mean
		ss += d * d
	}
	return time.Duration(math.Sqrt(ss/float64(n-1)) / math.Sqrt(float64(n)))
}

// ReplicateSeeds derives n seeds from a base seed, the replication
// axis of the matrix.
func ReplicateSeeds(base int64, n int) []int64 {
	if n < 1 {
		n = 1
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = base + int64(i)
	}
	return seeds
}

// RepRow is one trace's row of replicated cells, one per policy.
type RepRow struct {
	Trace string
	Cells []*Replicate
}

// RunReplicated replays the traces×policies×seeds matrix and folds
// the seed axis into mean ± error cells.
func (e *Engine) RunReplicated(s Scale, traces []string, seeds []int64) ([]RepRow, error) {
	if len(traces) == 0 {
		traces = trace.ProfileNames()
	}
	m := Matrix{Scale: s, Traces: traces, Seeds: seeds}
	results, err := e.RunMatrix(m)
	if err != nil {
		return nil, err
	}
	byCell := make(map[[2]string]*Replicate)
	var rows []RepRow
	rowIx := make(map[string]int)
	for _, res := range results {
		key := [2]string{res.Cell.Trace, res.Cell.Policy}
		rep := byCell[key]
		if rep == nil {
			rep = &Replicate{Trace: res.Cell.Trace, Policy: res.Cell.Policy}
			byCell[key] = rep
			ix, ok := rowIx[res.Cell.Trace]
			if !ok {
				ix = len(rows)
				rowIx[res.Cell.Trace] = ix
				rows = append(rows, RepRow{Trace: res.Cell.Trace})
			}
			rows[ix].Cells = append(rows[ix].Cells, rep)
		}
		rep.Seeds = append(rep.Seeds, res.Cell.Seed)
		rep.Reports = append(rep.Reports, res.Report)
	}
	return rows, nil
}

// Figure5Replicated renders the mean-latency matrix with the
// across-seed standard error in every cell.
func Figure5Replicated(rows []RepRow, seeds []int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5 (replicated over %d seeds): mean ± stderr of file-system latency\n\n", len(seeds))
	if len(rows) == 0 {
		return b.String()
	}
	fmt.Fprintf(&b, "%-8s", "trace")
	for _, c := range rows[0].Cells {
		fmt.Fprintf(&b, "%24s", c.Policy)
	}
	fmt.Fprintf(&b, "\n")
	for _, row := range rows {
		fmt.Fprintf(&b, "%-8s", row.Trace)
		for _, c := range row.Cells {
			cell := fmt.Sprintf("%s ±%s",
				c.MeanLatency().Round(time.Microsecond),
				c.StderrLatency().Round(time.Microsecond))
			fmt.Fprintf(&b, "%24s", cell)
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}
