package experiments

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/patsy"
)

// This file is the end-to-end I/O clustering study: the same trace
// replayed with clustered multi-block transfers off and on (at
// several run-size caps) under both storage layouts, measuring the
// number the paper's disk economics turn on — requests issued and
// blocks per request — next to the latency it buys. Readahead runs
// in every cell so the read side exercises ReadRunVec, and the
// whole-file write-delay policy gives the flusher contiguous dirty
// runs to coalesce. Every cell is one deterministic simulation on
// the parallel engine.

// ClusteringCell is one (layout, run-cap) measurement.
type ClusteringCell struct {
	Layout  string `json:"layout"`
	Cluster int    `json:"cluster"` // run cap in blocks (0 = off)
	Policy  string `json:"policy"`

	// Requests and blocks the disks saw (cleaner traffic included).
	ReadReqs      int64   `json:"read_reqs"`
	WriteReqs     int64   `json:"write_reqs"`
	BlocksRead    int64   `json:"blocks_read"`
	BlocksWritten int64   `json:"blocks_written"`
	BlocksPerReq  float64 `json:"blocks_per_req"`

	MeanLatencyMS float64 `json:"mean_latency_ms"`
	Ops           int     `json:"ops"`
}

// ClusteringStudy is the full grid plus its provenance.
type ClusteringStudy struct {
	Trace    string           `json:"trace"`
	Scale    string           `json:"scale"`
	Seed     int64            `json:"seed"`
	Layouts  []string         `json:"layouts"`
	Caps     []int            `json:"caps"`
	Cells    []ClusteringCell `json:"cells"`
	Note     string           `json:"note,omitempty"`
	Kind     string           `json:"kind"`
	Revision int              `json:"revision"`
}

// RunClusteringStudy replays traceName for every layout × run-cap
// cell (cap 0 = clustering off). One engine matrix; deterministic
// per seed at any worker count.
func RunClusteringStudy(e *Engine, s Scale, traceName string, seed int64, layouts []string, caps []int) (*ClusteringStudy, error) {
	if len(layouts) == 0 {
		layouts = []string{"lfs", "ffs"}
	}
	if len(caps) == 0 {
		caps = []int{0, 8, 32}
	}
	as := ArrayScale(s)
	type cellKey struct {
		layout string
		cap    int
	}
	var variants []Variant
	byVariant := make(map[string]cellKey)
	for _, lay := range layouts {
		for _, runCap := range caps {
			lay, runCap := lay, runCap
			name := fmt.Sprintf("%s-cl%d", lay, runCap)
			byVariant[name] = cellKey{lay, runCap}
			variants = append(variants, Variant{
				Name: name,
				Mutate: func(cfg *patsy.Config) {
					cfg.Layout = lay
					cfg.ArrayVolumes = 1
					cfg.ClusterRunBlocks = runCap
					cfg.ReadaheadBlocks = 8
				},
			})
		}
	}
	results, err := e.RunMatrix(Matrix{
		Scale:    as,
		Traces:   []string{traceName},
		Policies: []cache.FlushConfig{cache.WriteDelay()},
		Variants: variants,
		Seeds:    []int64{seed},
	})
	if err != nil {
		return nil, err
	}
	study := &ClusteringStudy{
		Trace:    traceName,
		Scale:    s.Name,
		Seed:     seed,
		Layouts:  layouts,
		Caps:     caps,
		Kind:     "clustering",
		Revision: 5,
	}
	for _, r := range results {
		k, ok := byVariant[r.Cell.Variant]
		if !ok {
			return nil, fmt.Errorf("clustering study: unknown variant %q in results", r.Cell.Variant)
		}
		cell := ClusteringCell{
			Layout:        k.layout,
			Cluster:       k.cap,
			Policy:        r.Cell.Policy,
			BlocksPerReq:  r.Report.BlocksPerRequest(),
			MeanLatencyMS: float64(r.Report.MeanLatency()) / 1e6,
			Ops:           r.Report.WallOps,
		}
		for _, v := range r.Report.PerVolume {
			cell.ReadReqs += v.Reads
			cell.WriteReqs += v.Writes
			cell.BlocksRead += v.BlocksRead
			cell.BlocksWritten += v.BlocksWritten
		}
		study.Cells = append(study.Cells, cell)
	}
	return study, nil
}

// ClusteringTable renders the study for the terminal.
func ClusteringTable(st *ClusteringStudy) string {
	var b strings.Builder
	fmt.Fprintf(&b, "I/O clustering study: trace %s, policy write-delay, readahead 8\n", st.Trace)
	fmt.Fprintf(&b, "(cluster = run-size cap per device request, 0 = off; blk/req is the mean transfer\n")
	fmt.Fprintf(&b, " size the disks saw — per-request overhead divides by exactly that factor)\n\n")
	fmt.Fprintf(&b, "%-6s %8s %10s %10s %12s %12s %8s %12s\n",
		"layout", "cluster", "read reqs", "write reqs", "blocks read", "blocks wrtn", "blk/req", "latency")
	for _, c := range st.Cells {
		fmt.Fprintf(&b, "%-6s %8d %10d %10d %12d %12d %8.2f %10.2fms\n",
			c.Layout, c.Cluster, c.ReadReqs, c.WriteReqs, c.BlocksRead, c.BlocksWritten,
			c.BlocksPerReq, c.MeanLatencyMS)
	}
	return b.String()
}

// ClusteringJSON is the committed-artifact form (BENCH_5.json).
func ClusteringJSON(st *ClusteringStudy) ([]byte, error) {
	out, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
