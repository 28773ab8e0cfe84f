package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

// runChild runs one workload in a process of its own (so no workload
// inherits another's heap, goroutines or page cache state) and parses
// the summary line it prints last.
func runChild(o options, workload string, seed int64) (summary, error) {
	self, err := os.Executable()
	if err != nil {
		return summary{}, err
	}
	trace := "0"
	if o.traced {
		trace = "1"
	}
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(o.measureFor.Seconds(), 'f', -1, 64), "-trace", trace,
		"-out", o.outDir, "-imagedir", o.imageDir}
	if o.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return summary{}, fmt.Errorf("%s (seed %d): %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var s summary
	if err := json.Unmarshal(lines[len(lines)-1], &s); err != nil {
		return summary{}, fmt.Errorf("%s (seed %d): bad summary line: %w", workload, seed, err)
	}
	if !s.Correct {
		return s, fmt.Errorf("%s (seed %d): %d of %d operations failed", workload, seed, s.Failed, s.Attempted)
	}
	return s, nil
}

// runSuite runs every workload: once, printing each metric, or
// -repeat times with consecutive seeds, printing the spread of every
// end-to-end metric next to its bound. It returns the exit code.
func runSuite(o options) int {
	defs := endToEnd
	if o.traced {
		defs = perLayer
	}
	reps := max(1, o.repeat)
	// vals[workload][metric] holds one value per repetition.
	vals := map[string]map[string][]float64{}
	for i := 0; i < reps; i++ {
		for _, wl := range workloadNames() {
			s, err := runChild(o, wl, o.seed+int64(i))
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			if vals[wl] == nil {
				vals[wl] = map[string][]float64{}
			}
			for name, m := range s.Metrics {
				vals[wl][name] = append(vals[wl][name], m.Value)
			}
		}
	}
	if o.repeat == 0 {
		for _, wl := range workloadNames() {
			fmt.Printf("%s\n", wl)
			for _, d := range defs {
				fmt.Printf("  %-40s %14.4f %s\n", d.Name, vals[wl][d.Name][0], d.Unit)
			}
		}
		return 0
	}
	// The acceptance rule: the distance between the quartiles, as a
	// share of the median, stays within the metric's bound (set-up time
	// is exempt from the spread rule; its medians are compared).
	code := 0
	fmt.Printf("%-13s %-16s %12s %12s %12s %9s %9s %7s\n", "workload", "metric", "median", "min", "max", "range/med", "iqr/med", "bound")
	for _, wl := range workloadNames() {
		for _, d := range defs {
			vs := vals[wl][d.Name]
			lo, hi := slices.Min(vs), slices.Max(vs)
			med, sp := median(vs), spread(vs)
			flag := ""
			if d.Bound > 0 && d.Name != "setup_s" && sp > d.Bound {
				flag, code = "  OVER", 1
			}
			fmt.Printf("%-13s %-16s %12.4f %12.4f %12.4f %8.2f%% %8.2f%% %6.0f%%%s\n",
				wl, d.Name, med, lo, hi, 100*ratio(hi-lo, med), 100*sp, 100*d.Bound, flag)
		}
	}
	return code
}
