package experiments

// The self-heal study (BENCH_10.json): what a supervised repair costs
// the serving path, and how fast the loop closes. For each redundant
// placement the serving study's closed loop runs twice on Patsy under
// the virtual kernel — once healthy (the baseline), once through the
// full supervised-repair arc: a member killed at the fault seam by the
// op that completes the first quarter of the cell's ops, the health
// monitor confirming the death from driver evidence, the hot spare
// promoted, the online rebuild racing the clients, and the scrub
// verify closing the incident. The supervisor is the on-line server's
// own (health.Members), here over simulated drives. The array serves a
// dead member's share from redundancy, so not one client op may fail.
// The repair cells report the detection latency and MTTR on the
// virtual clock alongside the serving numbers; every cell is
// deterministic per seed, so the artifact is pinned byte for byte.

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/bench"
)

// SelfHealStudy is the measured grid plus its provenance.
type SelfHealStudy struct {
	Seed       int64          `json:"seed"`
	Placements []string       `json:"placements"`
	Width      int            `json:"width"`
	Cells      []bench.Result `json:"cells"`
	Note       string         `json:"note,omitempty"`
	Kind       string         `json:"kind"`
	Revision   int            `json:"revision"`
}

// selfHealCell shares the degraded study's workload shape (an 8 MB
// working set over a 2 MB cache, 70/30 mix, four closed-loop
// clients), sized up in ops so the repair arc completes under load
// rather than after the clients drain.
func selfHealCell(placement string, heal bool, width int, seed int64) bench.Config {
	cfg := degradedCell(placement, "healthy", width, seed)
	cfg.Ops = 600
	cfg.SelfHeal = heal
	return cfg
}

// RunSelfHealStudy measures every placement twice: healthy baseline
// and supervised repair. Deterministic per seed.
func RunSelfHealStudy(seed int64, placements []string, width int) (*SelfHealStudy, error) {
	if len(placements) == 0 {
		placements = []string{"mirrored", "parity"}
	}
	if width <= 0 {
		width = 3
	}
	study := &SelfHealStudy{
		Seed:       seed,
		Placements: placements,
		Width:      width,
		Kind:       "selfheal",
		Revision:   10,
		Note:       "virtual-kernel cells on the server's supervisor: deterministic per seed, pinned",
	}
	for _, pl := range placements {
		for _, heal := range []bool{false, true} {
			res, err := bench.RunSim(selfHealCell(pl, heal, width, seed))
			if err != nil {
				return nil, fmt.Errorf("selfheal study %s/heal=%v: %w", pl, heal, err)
			}
			study.Cells = append(study.Cells, res)
		}
	}
	return study, nil
}

// SelfHealTable renders the study for the terminal.
func SelfHealTable(st *SelfHealStudy) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Self-heal study: width %d, seed %d (virtual kernel, simulated ms)\n", st.Width, st.Seed)
	fmt.Fprintf(&b, "(selfheal = member killed a quarter into the ops; detection, spare promotion,\n")
	fmt.Fprintf(&b, " online rebuild and scrub verify all race the client load)\n\n")
	fmt.Fprintf(&b, "%-10s %-9s %10s %8s %8s %8s %10s %10s\n",
		"placement", "state", "ops/sec", "p50", "p95", "p99", "detect", "mttr")
	for _, r := range st.Cells {
		state, det, mttr := "healthy", "-", "-"
		if r.SelfHeal {
			state = "selfheal"
			det = fmt.Sprintf("%.0fms", r.DetectMS)
			mttr = fmt.Sprintf("%.0fms", r.MTTRMS)
		}
		fmt.Fprintf(&b, "%-10s %-9s %10.1f %7.2fm %7.2fm %7.2fm %10s %10s\n",
			r.Placement, state, r.OpsPerSec, r.P50MS, r.P95MS, r.P99MS, det, mttr)
	}
	return b.String()
}

// SelfHealJSON is the artifact form (BENCH_10.json).
func SelfHealJSON(st *SelfHealStudy) ([]byte, error) {
	out, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
