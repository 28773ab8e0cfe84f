// Command experiments regenerates the paper's figures and claim
// checks, plus the ablation suite. The evaluation is a
// matrix of independent simulations, so it runs on the parallel job
// engine by default — one worker per CPU, deterministically merged,
// byte-identical to a sequential run at the same seeds.
//
//	experiments -fig all                 # figures 2-5 at paper scale
//	experiments -fig 2 -cdf              # figure 2 with full CDF dump
//	experiments -ablations               # the ablation suite
//	experiments -scale quick -fig 5      # fast shrunken rig
//	experiments -fig 5 -seeds 5          # figure 5 as mean ± stderr over 5 seeds
//	experiments -workers 1               # sequential engine (timing baseline)
//	experiments -disks 1,2,4,8           # array-scaling study on the volume manager
//	experiments -serving                 # serving study; rewrites bench_baseline.json
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		fig        = flag.String("fig", "all", "figure to regenerate: 2, 3, 4, 5, all")
		scaleName  = flag.String("scale", "paper", "experiment scale: paper or quick")
		duration   = flag.Duration("duration", 0, "override trace duration (e.g. 10m)")
		seed       = flag.Int64("seed", experiments.DefaultSeed, "deterministic seed")
		seeds      = flag.Int("seeds", 1, "replication: run every cell at this many seeds and report mean ± stderr")
		workers    = flag.Int("workers", 0, "concurrent simulations (0 = one per CPU)")
		seq        = flag.Bool("seq", false, "use the pre-engine sequential path (reference for A/B timing)")
		ablations  = flag.Bool("ablations", false, "run the ablation suite instead of figures")
		fullCDF    = flag.Bool("cdf", false, "dump the full CDF tables (plottable)")
		intervals  = flag.Bool("intervals", false, "print 15-minute interval reports")
		serving    = flag.Bool("serving", false, "run the serving study (readahead before/after plus the pinned baseline cells) instead of figures")
		servingOut = flag.String("servingout", "bench_baseline.json", "write the serving study's pinned cells as JSON here (empty = don't)")
		disks      = flag.String("disks", "", "array-scaling study: comma-separated array widths (e.g. 1,2,4,8) to replay -scaletrace on, under all four write policies")
		scTrace    = flag.String("scaletrace", "1a", "trace for the array-scaling study")
		placement  = flag.String("placement", "striped", "array placement for the scaling study: striped or affinity")
		stripe     = flag.Int("stripe", 8, "stripe width in 4KB blocks for the scaling study")
		reliab     = flag.Bool("reliability", false, "run the crash-reliability study (power cut + recovery per policy × layout × width) instead of figures")
		relVols    = flag.String("relvolumes", "1,2", "array widths for the reliability study")
		relOut     = flag.String("relout", "BENCH_4.json", "write the reliability study as JSON here (empty = don't; -relintents defaults to BENCH_6.json)")
		relIntents = flag.Bool("relintents", false, "attach the metadata intent log to the reliability study: cells gain the namespace-op loss column (BENCH_6 revision)")
		clust      = flag.Bool("clustering", false, "run the I/O clustering study (run-size cap × layout, requests vs blocks) instead of figures")
		clTrace    = flag.String("cltrace", "1b", "trace for the clustering study (1b's large writers exercise the write runs)")
		clCaps     = flag.String("clcaps", "0,8,32", "run-size caps for the clustering study (0 = off)")
		clOut      = flag.String("clout", "BENCH_5.json", "write the clustering study as JSON here (empty = don't)")
		degraded   = flag.Bool("degraded", false, "run the degraded-serving study (healthy vs degraded vs rebuilding per redundant placement) instead of figures")
		degPlace   = flag.String("degplacements", "mirrored,parity", "redundant placements for the degraded study")
		degWidth   = flag.Int("degwidth", 3, "array width for the degraded study")
		degOut     = flag.String("degout", "BENCH_8.json", "write the degraded study as JSON here (empty = don't)")
		selfheal   = flag.Bool("selfheal", false, "run the self-heal study (healthy baseline vs supervised repair per redundant placement, real kernel) instead of figures")
		shPlace    = flag.String("shplacements", "mirrored,parity", "redundant placements for the self-heal study")
		shWidth    = flag.Int("shwidth", 3, "array width for the self-heal study")
		shOut      = flag.String("shout", "BENCH_10.json", "write the self-heal study as JSON here (empty = don't)")
		shDir      = flag.String("shdir", "", "directory for the self-heal study's image files (default TMPDIR)")
	)
	flag.Parse()

	var scale experiments.Scale
	switch *scaleName {
	case "paper":
		scale = experiments.PaperScale()
	case "quick":
		scale = experiments.QuickScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scaleName)
		os.Exit(2)
	}
	if *duration > 0 {
		scale.Duration = *duration
	}
	engine := &experiments.Engine{Workers: *workers}

	if *serving {
		start := time.Now()
		st, err := experiments.RunServingStudy()
		die(err)
		fmt.Println(experiments.ServingTable(st))
		if *servingOut != "" {
			out, err := experiments.ServingBaselineJSON(st)
			die(err)
			die(os.WriteFile(*servingOut, out, 0o644))
			fmt.Printf("(wrote %s)\n", *servingOut)
		}
		fmt.Printf("(wall time %v)\n", time.Since(start).Round(time.Millisecond))
		return
	}

	if *clust {
		caps, err := parseCaps(*clCaps)
		die(err)
		start := time.Now()
		st, err := experiments.RunClusteringStudy(engine, scale, *clTrace, *seed, nil, caps)
		die(err)
		fmt.Println(experiments.ClusteringTable(st))
		if *clOut != "" {
			out, err := experiments.ClusteringJSON(st)
			die(err)
			die(os.WriteFile(*clOut, out, 0o644))
			fmt.Printf("(wrote %s)\n", *clOut)
		}
		fmt.Printf("(wall time %v, scale %s, trace duration %v)\n",
			time.Since(start).Round(time.Millisecond), scale.Name, scale.Duration)
		return
	}

	if *degraded {
		var placements []string
		for _, p := range strings.Split(*degPlace, ",") {
			if p = strings.TrimSpace(p); p != "" {
				placements = append(placements, p)
			}
		}
		start := time.Now()
		st, err := experiments.RunDegradedStudy(*seed, placements, *degWidth)
		die(err)
		fmt.Println(experiments.DegradedTable(st))
		if *degOut != "" {
			out, err := experiments.DegradedJSON(st)
			die(err)
			die(os.WriteFile(*degOut, out, 0o644))
			fmt.Printf("(wrote %s)\n", *degOut)
		}
		fmt.Printf("(wall time %v)\n", time.Since(start).Round(time.Millisecond))
		return
	}

	if *selfheal {
		var placements []string
		for _, p := range strings.Split(*shPlace, ",") {
			if p = strings.TrimSpace(p); p != "" {
				placements = append(placements, p)
			}
		}
		dir := *shDir
		if dir == "" {
			dir = os.TempDir()
		}
		start := time.Now()
		st, err := experiments.RunSelfHealStudy(dir, *seed, placements, *shWidth)
		die(err)
		fmt.Println(experiments.SelfHealTable(st))
		if *shOut != "" {
			out, err := experiments.SelfHealJSON(st)
			die(err)
			die(os.WriteFile(*shOut, out, 0o644))
			fmt.Printf("(wrote %s)\n", *shOut)
		}
		fmt.Printf("(wall time %v)\n", time.Since(start).Round(time.Millisecond))
		return
	}

	if *reliab {
		widths, err := parseWidths(*relVols)
		die(err)
		run := experiments.RunReliabilityStudy
		if *relIntents {
			run = experiments.RunReliabilityIntentStudy
			// The intent-log revision is a different artifact; don't
			// clobber BENCH_4 unless -relout was given explicitly.
			relOutSet := false
			flag.Visit(func(f *flag.Flag) {
				if f.Name == "relout" {
					relOutSet = true
				}
			})
			if !relOutSet {
				*relOut = "BENCH_6.json"
			}
		}
		start := time.Now()
		st, err := run(engine, scale, *scTrace, *seed, nil, widths)
		die(err)
		fmt.Println(experiments.ReliabilityTable(st))
		if *relOut != "" {
			out, err := experiments.ReliabilityJSON(st)
			die(err)
			die(os.WriteFile(*relOut, out, 0o644))
			fmt.Printf("(wrote %s)\n", *relOut)
		}
		fmt.Printf("(wall time %v, scale %s, trace duration %v)\n",
			time.Since(start).Round(time.Millisecond), scale.Name, scale.Duration)
		return
	}

	if *disks != "" {
		widths, err := parseWidths(*disks)
		die(err)
		if *seeds > 1 {
			fmt.Fprintf(os.Stderr, "note: -seeds replication applies to figure 5 only; the scaling study runs at seed %d\n", *seed)
		}
		scEngine := engine
		if *seq {
			scEngine = experiments.Sequential()
		}
		start := time.Now()
		rows, err := experiments.RunArrayScaling(scEngine, scale, *scTrace, *seed, widths, *placement, *stripe)
		die(err)
		fmt.Println(experiments.ArrayScalingTable(rows, *scTrace, *placement, *stripe))
		fmt.Printf("(wall time %v, scale %s, trace duration %v)\n",
			time.Since(start).Round(time.Millisecond), scale.Name, scale.Duration)
		return
	}

	if *ablations {
		ablEngine := engine
		if *seq {
			ablEngine = experiments.Sequential()
		}
		runAblations(ablEngine, scale, *seed)
		return
	}

	runTrace := func(tn string, sd int64) ([]experiments.PolicyRun, error) {
		if *seq {
			return experiments.RunTraceSequential(scale, tn, sd)
		}
		return experiments.RunTraceWith(engine, scale, tn, sd)
	}
	runFig5 := func(sd int64) ([]experiments.Fig5Row, error) {
		if *seq {
			return experiments.RunFigure5Sequential(scale, sd, nil)
		}
		return experiments.RunFigure5With(engine, scale, sd, nil)
	}
	fig5 := func() {
		if *seeds > 1 {
			// Replication has no pre-engine path; -seq degrades to a
			// one-worker engine, which runs the jobs in matrix order.
			repEngine := engine
			if *seq {
				repEngine = experiments.Sequential()
			}
			sds := experiments.ReplicateSeeds(*seed, *seeds)
			rows, err := repEngine.RunReplicated(scale, nil, sds)
			die(err)
			fmt.Println(experiments.Figure5Replicated(rows, sds))
			return
		}
		rows, err := runFig5(*seed)
		die(err)
		fmt.Println(experiments.Figure5(rows))
	}
	if *seeds > 1 && *fig != "5" {
		fmt.Fprintf(os.Stderr, "note: -seeds replication applies to figure 5 only; figures 2-4 run at seed %d\n", *seed)
	}

	figTraces := map[string]string{"2": "1a", "3": "1b", "4": "5"}
	start := time.Now()
	switch *fig {
	case "2", "3", "4":
		tn := figTraces[*fig]
		runs, err := runTrace(tn, *seed)
		die(err)
		fmt.Println(experiments.FigureCDF("Figure "+*fig, tn, runs))
		if *fullCDF {
			for _, r := range runs {
				fmt.Printf("--- full CDF, policy %s ---\n%s\n", r.Policy, experiments.FullCDF(r.Report))
			}
		}
		if *intervals {
			for _, r := range runs {
				fmt.Printf("--- intervals, policy %s ---\n%s", r.Policy, experiments.RenderIntervals(r.Report))
			}
		}
	case "5":
		fig5()
	case "all":
		for _, f := range []string{"2", "3", "4"} {
			tn := figTraces[f]
			runs, err := runTrace(tn, *seed)
			die(err)
			fmt.Println(experiments.FigureCDF("Figure "+f, tn, runs))
		}
		fig5()
	default:
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *fig)
		os.Exit(2)
	}
	mode := fmt.Sprintf("engine, %d workers", engineWorkers(*workers))
	if *seq {
		mode = "sequential"
	}
	fmt.Printf("(wall time %v, scale %s, trace duration %v, %s)\n",
		time.Since(start).Round(time.Millisecond), scale.Name, scale.Duration, mode)
}

// parseCaps parses the clustering study's run caps (0 allowed = off).
func parseCaps(s string) ([]int, error) {
	var caps []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		c, err := strconv.Atoi(part)
		if err != nil || c < 0 {
			return nil, fmt.Errorf("bad -clcaps entry %q (want non-negative integers, e.g. 0,8,32)", part)
		}
		caps = append(caps, c)
	}
	if len(caps) == 0 {
		return nil, fmt.Errorf("-clcaps given but empty")
	}
	return caps, nil
}

func parseWidths(s string) ([]int, error) {
	var widths []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		w, err := strconv.Atoi(part)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad -disks entry %q (want positive integers, e.g. 1,2,4,8)", part)
		}
		widths = append(widths, w)
	}
	if len(widths) == 0 {
		return nil, fmt.Errorf("-disks given but empty")
	}
	return widths, nil
}

func engineWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

func runAblations(e *experiments.Engine, scale experiments.Scale, seed int64) {
	type ab struct {
		name string
		run  func() (string, error)
	}
	abs := []ab{
		{"replacement", func() (string, error) { return experiments.AblateReplacement(e, scale, "1a", seed) }},
		{"queue-sched", func() (string, error) { return experiments.AblateQueueSched(e, scale, "1a", seed) }},
		{"layout", func() (string, error) { return experiments.AblateLayout(e, scale, "1a", seed) }},
		{"disk-model", func() (string, error) { return experiments.AblateDiskModel(e, scale, "1a", seed) }},
		{"cleaner", func() (string, error) { return experiments.AblateCleaner(e, scale, seed) }},
		{"nvram-size", func() (string, error) { return experiments.AblateNVRAMSize(e, scale, seed) }},
		{"sched-seeds", func() (string, error) { return experiments.AblateSchedulerPolicy(e, scale, "1a", seed) }},
	}
	for _, a := range abs {
		out, err := a.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "ablation %s: %v\n", a.name, err)
			continue
		}
		fmt.Println(out)
	}
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
