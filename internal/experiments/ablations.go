package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/patsy"
)

// AblationRow is one variant's outcome.
type AblationRow struct {
	Variant string
	Report  *patsy.Report
}

// renderAblation prints a variant table.
func renderAblation(title string, rows []AblationRow, extra func(*patsy.Report) string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	for _, r := range rows {
		line := fmt.Sprintf("  %-16s mean=%-12s ops=%-7d flushed=%-8d",
			r.Variant, r.Report.MeanLatency().Round(time.Microsecond),
			r.Report.WallOps, r.Report.Flushed)
		if extra != nil {
			line += " " + extra(r.Report)
		}
		b.WriteString(line + "\n")
	}
	return b.String()
}

// runVariants replays one trace under write-delay across the given
// config variants on e (nil = the machine-wide parallel engine) and
// returns the rows in variant order.
func runVariants(e *Engine, s Scale, traceName string, seed int64, variants []Variant) ([]AblationRow, error) {
	if e == nil {
		e = Parallel()
	}
	results, err := e.RunMatrix(Matrix{
		Scale:    s,
		Traces:   []string{traceName},
		Policies: []cache.FlushConfig{cache.WriteDelay()},
		Variants: variants,
		Seeds:    []int64{seed},
	})
	if err != nil {
		return nil, err
	}
	rows := make([]AblationRow, len(results))
	for i, r := range results {
		rows[i] = AblationRow{Variant: r.Cell.Variant, Report: r.Report}
	}
	return rows, nil
}

// AblateReplacement compares cache replacement policies on one
// trace (the paper's RR/LFU/SLRU/LRU-K policy point). The cache is
// shrunk so replacement actually happens: policies only differ
// under eviction pressure.
func AblateReplacement(e *Engine, s Scale, traceName string, seed int64) (string, error) {
	small := s.CacheBlocks / 16
	if small < 128 {
		small = 128
	}
	var variants []Variant
	for _, rp := range []string{"lru", "random", "lfu", "slru", "lru2"} {
		rp := rp
		variants = append(variants, Variant{Name: rp, Mutate: func(cfg *patsy.Config) {
			cfg.CacheBlocks = small
			cfg.Replace = rp
		}})
	}
	rows, err := runVariants(e, s, traceName, seed, variants)
	if err != nil {
		return "", err
	}
	return renderAblation(
		fmt.Sprintf("Ablation: cache replacement policy (trace %s, write-delay, %d-block cache)", traceName, small),
		rows, func(r *patsy.Report) string {
			return fmt.Sprintf("readhit=%.1f%%", 100*r.ReadHit)
		}), nil
}

// AblateQueueSched compares disk-queue schedulers on the write-heavy
// trace 5, where disk queues actually build depth.
func AblateQueueSched(e *Engine, s Scale, traceName string, seed int64) (string, error) {
	if traceName == "" || traceName == "1a" {
		traceName = "5"
	}
	var variants []Variant
	for _, qs := range []string{"fcfs", "sstf", "look", "clook"} {
		qs := qs
		variants = append(variants, Variant{Name: qs, Mutate: func(cfg *patsy.Config) {
			cfg.QueueSched = qs
		}})
	}
	rows, err := runVariants(e, s, traceName, seed, variants)
	if err != nil {
		return "", err
	}
	return renderAblation(
		fmt.Sprintf("Ablation: disk queue scheduler (trace %s, write-delay)", traceName),
		rows, nil), nil
}

// AblateLayout compares the segmented LFS against the FFS-like
// in-place layout.
func AblateLayout(e *Engine, s Scale, traceName string, seed int64) (string, error) {
	var variants []Variant
	for _, lay := range []string{"lfs", "ffs"} {
		lay := lay
		variants = append(variants, Variant{Name: lay, Mutate: func(cfg *patsy.Config) {
			cfg.Layout = lay
		}})
	}
	rows, err := runVariants(e, s, traceName, seed, variants)
	if err != nil {
		return "", err
	}
	return renderAblation(
		fmt.Sprintf("Ablation: storage layout (trace %s, write-delay)", traceName),
		rows, nil), nil
}

// AblateDiskModel reproduces the paper's motivation: a naive
// fixed-latency disk model versus the detailed HP 97560 model
// (Ruemmler reported errors up to 112% from simple models).
func AblateDiskModel(e *Engine, s Scale, traceName string, seed int64) (string, error) {
	var variants []Variant
	for _, dm := range []string{"hp97560", "naive"} {
		dm := dm
		variants = append(variants, Variant{Name: dm, Mutate: func(cfg *patsy.Config) {
			cfg.DiskModel = dm
		}})
	}
	rows, err := runVariants(e, s, traceName, seed, variants)
	if err != nil {
		return "", err
	}
	out := renderAblation(
		fmt.Sprintf("Ablation: disk model fidelity (trace %s, write-delay)", traceName),
		rows, nil)
	if len(rows) == 2 {
		a, b := rows[0].Report.MeanLatency(), rows[1].Report.MeanLatency()
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		if lo > 0 {
			out += fmt.Sprintf("  naive-vs-detailed divergence: %.0f%% (the 'simple models mislead' effect)\n",
				100*float64(hi-lo)/float64(lo))
		}
	}
	return out, nil
}

// AblateCleaner compares log-cleaner policies on the churn-heavy
// compile trace, with volumes capped small enough that the log
// wraps within the trace.
func AblateCleaner(e *Engine, s Scale, seed int64) (string, error) {
	var variants []Variant
	for _, cl := range []string{"greedy", "cost-benefit"} {
		cl := cl
		variants = append(variants, Variant{Name: cl, Mutate: func(cfg *patsy.Config) {
			cfg.Cleaner = cl
			cfg.MaxVolBlocks = 2048 // 8 MB volumes force cleaning
		}})
	}
	rows, err := runVariants(e, s, "3", seed, variants)
	if err != nil {
		return "", err
	}
	return renderAblation("Ablation: LFS cleaner policy (trace 3, write-delay, 8 MB volumes)", rows, nil), nil
}

// AblateNVRAMSize sweeps the NVRAM buffer on the write-heavy trace
// 1b, the question Baker et al. left open.
func AblateNVRAMSize(e *Engine, s Scale, seed int64) (string, error) {
	sizes := []int{s.NVRAMBlocks / 4, s.NVRAMBlocks / 2, s.NVRAMBlocks, s.NVRAMBlocks * 2}
	var variants []Variant
	for _, n := range sizes {
		if n < 8 {
			continue
		}
		n := n
		variants = append(variants, Variant{
			Name: fmt.Sprintf("%dKB", n*4),
			Mutate: func(cfg *patsy.Config) {
				cfg.Flush = cache.NVRAMWhole(n)
			},
		})
	}
	rows, err := runVariants(e, s, "1b", seed, variants)
	if err != nil {
		return "", err
	}
	return renderAblation("Ablation: NVRAM size (trace 1b, whole-file flush)", rows,
		func(r *patsy.Report) string {
			return fmt.Sprintf("nvram-waits=%d", r.NVRAMWaits)
		}), nil
}

// AblateSchedulerPolicy compares thread-scheduler policies — the
// paper's derived-scheduler-class point (random is the default).
func AblateSchedulerPolicy(e *Engine, s Scale, traceName string, seed int64) (string, error) {
	// The policy lives in the kernel; patsy seeds random dispatch.
	// Distinct seeds stand in for distinct random schedules; identical
	// results would reveal a determinism bug, wildly different ones
	// an instability.
	var variants []Variant
	for i, sd := range []int64{seed, seed + 1, seed + 2} {
		sd := sd
		variants = append(variants, Variant{
			Name:   fmt.Sprintf("seed%d", i),
			Mutate: func(cfg *patsy.Config) { cfg.Seed = sd },
		})
	}
	rows, err := runVariants(e, s, traceName, seed, variants)
	if err != nil {
		return "", err
	}
	return renderAblation(
		fmt.Sprintf("Ablation: scheduler randomness sensitivity (trace %s)", traceName),
		rows, nil), nil
}
