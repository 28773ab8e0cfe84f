package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/bench"
)

// This file is the serving study: the closed-loop serving workload of
// internal/bench on the virtual kernel, where every cell is
// deterministic (ops per simulated second) and so can be pinned byte
// for byte, like the degraded study's BENCH_8.json. Two parts:
//
//   - Streaming: one client reads a file front to back with think
//     time between requests, readahead off vs on. Readahead turns
//     cold sequential misses into cache hits by working ahead into
//     the disk's idle time.
//
//   - Baseline (bench_baseline.json): the classic 80/20 mix at 1 and
//     4 clients, plus mirrored and parity arrays healthy and with a
//     dead member at 4 clients. A change to the serving, degraded
//     read or parity write paths changes these bytes.
//
// The real server's serving numbers are the benchmark/ harness's.

// ServingRow is one study cell.
type ServingRow struct {
	Name string
	Res  bench.Result
}

// ServingStudy is the measured study.
type ServingStudy struct {
	// Stream is the readahead before/after pair.
	Stream []ServingRow
	// Baseline holds the pinned cells, in bench_baseline.json order.
	Baseline []ServingRow
}

// streamCell is the streaming workload: cold sequential reads with
// idle disk time to work ahead into.
func streamCell(ra int) bench.Config {
	return bench.Config{
		Clients:     1,
		Ops:         200,
		Files:       1,
		FileBlocks:  2048, // 8 MB file over a 4 MB cache: always cold
		IOBytes:     16 << 10,
		ReadFrac:    1.0,
		Seed:        DefaultSeed,
		CacheBlocks: 1024,
		Think:       60 * time.Millisecond,
		Readahead:   ra,
	}
}

// RunServingStudy measures both parts. Deterministic.
func RunServingStudy() (*ServingStudy, error) {
	st := &ServingStudy{}
	run := func(rows *[]ServingRow, name string, cfg bench.Config) error {
		res, err := bench.RunSim(cfg)
		if err != nil {
			return fmt.Errorf("serving study %s: %w", name, err)
		}
		*rows = append(*rows, ServingRow{Name: name, Res: res})
		return nil
	}
	if err := run(&st.Stream, "stream, readahead off", streamCell(-1)); err != nil {
		return nil, err
	}
	if err := run(&st.Stream, "stream, readahead 8", streamCell(8)); err != nil {
		return nil, err
	}
	for _, c := range []int{1, 4} {
		if err := run(&st.Baseline, fmt.Sprintf("%d clients", c), bench.Quick(c)); err != nil {
			return nil, err
		}
	}
	for _, pl := range []string{"mirrored", "parity"} {
		for _, degr := range []bool{false, true} {
			cfg := bench.Quick(4)
			cfg.Placement, cfg.Degrade, cfg.DegradeMember = pl, degr, 1
			name := fmt.Sprintf("4 clients, %s healthy", pl)
			if degr {
				name = fmt.Sprintf("4 clients, %s degraded", pl)
			}
			if err := run(&st.Baseline, name, cfg); err != nil {
				return nil, err
			}
		}
	}
	return st, nil
}

// ServingBaselineJSON is the committed-artifact form of the pinned
// cells (bench_baseline.json).
func ServingBaselineJSON(st *ServingStudy) ([]byte, error) {
	f := &bench.File{Bench: 3}
	for _, r := range st.Baseline {
		f.Runs = append(f.Runs, r.Res)
	}
	return f.Encode()
}

// ServingTable renders the study.
func ServingTable(st *ServingStudy) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Serving study (virtual kernel, ops per simulated second)\n\n")
	fmt.Fprintf(&b, "%-36s %12s %9s %9s %9s %7s %9s\n",
		"cell", "ops/sec", "p50 ms", "p95 ms", "p99 ms", "hit", "ra fills")
	for _, rows := range [][]ServingRow{st.Stream, st.Baseline} {
		for _, r := range rows {
			fmt.Fprintf(&b, "%-36s %12.1f %9.2f %9.2f %9.2f %6.1f%% %9d\n",
				r.Name, r.Res.OpsPerSec, r.Res.P50MS, r.Res.P95MS, r.Res.P99MS,
				100*r.Res.Cache.HitRate, r.Res.Cache.ReadaheadFills)
		}
	}
	return b.String()
}
