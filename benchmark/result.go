package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// env stamps every output file with what the numbers were taken on.
type env struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GOGC       string `json:"gogc"`
	GitRev     string `json:"git_revision"`
	Seed       int64  `json:"seed"`
	ImageDir   string `json:"image_dir"`
	Smoke      bool   `json:"smoke,omitempty"`
}

func stamp(o options) env {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	return env{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      o.nproc,
		CPUModel:   cpuModel(),
		GOGC:       gogc,
		GitRev:     gitRevision("."),
		Seed:       o.seed,
		ImageDir:   o.imageDir,
		Smoke:      o.smoke,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRevision reads the checked-out commit from dir's .git without
// running git; a checkout that is not a repository says "unknown".
func gitRevision(dir string) string {
	head, err := os.ReadFile(filepath.Join(dir, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(dir, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(dir, ".git", "packed-refs"))
	for _, ln := range strings.Split(string(packed), "\n") {
		if rev, name, ok := strings.Cut(ln, " "); ok && name == ref {
			return rev
		}
	}
	return "unknown"
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run of one workload produced. The file
// written under -out holds all of it; the last line of standard
// output holds the summary a driver reads (see line).
type result struct {
	Workload  string                 `json:"workload"`
	Traced    bool                   `json:"traced"`
	Env       env                    `json:"env"`
	Sizing    map[string]int         `json:"sizing"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	SetupsS   []float64              `json:"setups_s,omitempty"`
	Windows   []sample               `json:"windows,omitempty"`
	// pool holds the latency of every measured op until foldLatencies
	// turns it into the run's p50 and p99.
	pool         []int64
	p50us, p99us float64
	// Rungs holds the traced run's windows per rung of the ladder.
	Rungs map[string][]sample `json:"rungs,omitempty"`
	// Notes records anything the numbers need to be read with.
	Notes []string `json:"notes,omitempty"`
}

func newResult(workload string, o options) *result {
	return &result{Workload: workload, Traced: o.traced, Env: stamp(o), Metrics: map[string]metricValue{}}
}

// foldLatencies computes the run's latency percentiles over the ops of
// all windows together and frees the samples. A window's own p99 sits
// on a knee — on hot_read about one op in a hundred meets the garbage
// collector, and how often depends on the heap the earlier set-ups
// left behind — so the median of per-window p99s jumps between two
// clusters; the percentile of the whole run does not.
func (r *result) foldLatencies() {
	slices.Sort(r.pool)
	r.p50us, r.p99us = percentileNS(r.pool, 0.50), percentileNS(r.pool, 0.99)
	r.pool = nil
}

// setEndToEnd folds the measured windows into the end-to-end metrics:
// the latency percentiles of the whole run, and the median over
// windows of every other per-window figure.
func (r *result) setEndToEnd(setupS, liveMB float64) {
	vals := map[string]float64{
		"setup_s":         setupS,
		"ops_per_s":       medianOf(r.Windows, func(s sample) float64 { return s.OpsPerS }),
		"op_p50_us":       r.p50us,
		"op_p99_us":       r.p99us,
		"cpu_us_per_op":   medianOf(r.Windows, func(s sample) float64 { return s.CPUus }),
		"allocs_per_op":   medianOf(r.Windows, func(s sample) float64 { return s.Allocs }),
		"alloc_kb_per_op": medianOf(r.Windows, func(s sample) float64 { return s.AllocKB }),
		"live_heap_mb":    liveMB,
	}
	r.setMetrics(endToEnd, vals)
}

// setMetrics records vals under defs' names and units; a name vals
// lacks (a layer the workload does not exercise) reports 0.
func (r *result) setMetrics(defs []metricDef, vals map[string]float64) {
	for _, m := range defs {
		r.Metrics[m.Name] = metricValue{vals[m.Name], m.Unit}
	}
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *result) line() summary {
	return summary{Correct: r.Failed == 0 && r.Attempted > 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics}
}

func (r *result) fileName() string {
	if r.Traced {
		return r.Workload + ".traced.json"
	}
	return r.Workload + ".json"
}

func (r *result) writeFile(o options) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.outDir, r.fileName()), append(b, '\n'), 0o644)
}
