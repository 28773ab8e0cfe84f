// Command experiments regenerates the paper's figures and claim
// checks, and runs the studies of experiments.Studies. The evaluation
// is a matrix of independent simulations, so it runs on the parallel
// job engine by default — one worker per CPU, deterministically
// merged, byte-identical to a sequential run at the same seeds.
//
//	experiments -fig all                 # figures 2-5 at paper scale
//	experiments -scale quick -fig 5      # fast shrunken rig
//	experiments -fig 5 -seeds 5          # figure 5 as mean ± stderr over 5 seeds
//	experiments -workers 1               # sequential engine (timing baseline)
//	experiments -study ablations         # the ablation suite
//	experiments -study scaling -disks 1,2,4,8   # array-scaling study on the volume manager
//	experiments -study serving           # serving study; rewrites bench_baseline.json
//
// A study with a committed artifact rewrites it only when run at the
// parameters it was committed at (its scale, that scale's duration,
// the default seed); otherwise it writes JSON only where -out says.
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
	var names []string
	for _, st := range experiments.Studies {
		names = append(names, st.Name)
	}
	var (
		fig       = flag.String("fig", "all", "figure to regenerate: 2, 3, 4, 5, all")
		scaleName = flag.String("scale", "paper", "experiment scale: paper or quick")
		duration  = flag.Duration("duration", 0, "override trace duration (e.g. 10m)")
		seed      = flag.Int64("seed", experiments.DefaultSeed, "deterministic seed")
		seeds     = flag.Int("seeds", 1, "replication: run figure 5 at this many seeds and report mean ± stderr")
		workers   = flag.Int("workers", 0, "concurrent simulations (0 = one per CPU)")
		study     = flag.String("study", "", "run this study instead of figures: "+strings.Join(names, ", "))
		out       = flag.String("out", "", "write the study's JSON here (default: its committed artifact, when run at the artifact's parameters)")
		disks     = flag.String("disks", "1,2,4,8", "scaling study: comma-separated array widths")
		placement = flag.String("placement", "striped", "scaling study: array placement, striped or affinity")
		stripe    = flag.Int("stripe", 8, "scaling study: stripe width in 4KB blocks")
	)
	flag.Parse()

	scale, ok := experiments.ScaleNamed(*scaleName)
	if !ok {
		usage("unknown scale %q", *scaleName)
	}
	if *duration > 0 {
		scale.Duration = *duration
	}
	engine := &experiments.Engine{Workers: *workers}
	if *seeds > 1 && *fig != "5" {
		fmt.Fprintf(os.Stderr, "note: -seeds replication applies to figure 5 only; everything else runs at seed %d\n", *seed)
	}
	flag.Visit(func(f *flag.Flag) {
		switch {
		case *study == "" && f.Name == "out":
			usage("-out needs -study")
		case *study != "" && f.Name == "fig":
			usage("-fig and -study are exclusive")
		case *study != "scaling" && (f.Name == "disks" || f.Name == "placement" || f.Name == "stripe"):
			usage("-%s applies to -study scaling only", f.Name)
		}
	})

	start := time.Now()
	if *study != "" {
		st, ok := experiments.FindStudy(*study)
		if !ok {
			usage("unknown study %q (want one of: %s)", *study, strings.Join(names, ", "))
		}
		if *out != "" && st.Artifact == "" {
			usage("-study %s writes no JSON; drop -out", st.Name)
		}
		p := experiments.StudyParams{Scale: scale, Seed: *seed, Placement: *placement, Stripe: *stripe}
		p.Widths, ok = parseWidths(*disks)
		if !ok {
			usage("bad -disks %q (want positive integers, e.g. 1,2,4,8)", *disks)
		}
		table, js, err := st.Run(engine, p)
		die(err)
		fmt.Println(table)
		path := *out
		if path == "" && st.Commits(p) {
			path = st.Artifact
		} else if path == "" && st.Artifact != "" {
			fmt.Printf("(not rewriting %s: it is committed at other parameters; -out saves this run)\n", st.Artifact)
		}
		if path != "" && js != nil {
			die(os.WriteFile(path, js, 0o644))
			fmt.Printf("(wrote %s)\n", path)
		}
		fmt.Printf("(wall time %v)\n", time.Since(start).Round(time.Millisecond))
		return
	}

	fig5 := func() {
		if *seeds > 1 {
			sds := experiments.ReplicateSeeds(*seed, *seeds)
			rows, err := engine.RunReplicated(scale, nil, sds)
			die(err)
			fmt.Println(experiments.Figure5Replicated(rows, sds))
			return
		}
		rows, err := experiments.RunFigure5With(engine, scale, *seed, nil)
		die(err)
		fmt.Println(experiments.Figure5(rows))
	}
	cdf := func(f string) {
		tn := map[string]string{"2": "1a", "3": "1b", "4": "5"}[f]
		runs, err := experiments.RunTraceWith(engine, scale, tn, *seed)
		die(err)
		fmt.Println(experiments.FigureCDF("Figure "+f, tn, runs))
	}
	switch *fig {
	case "2", "3", "4":
		cdf(*fig)
	case "5":
		fig5()
	case "all":
		for _, f := range []string{"2", "3", "4"} {
			cdf(f)
		}
		fig5()
	default:
		usage("unknown figure %q", *fig)
	}
	w := *workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	fmt.Printf("(wall time %v, scale %s, trace duration %v, engine, %d workers)\n",
		time.Since(start).Round(time.Millisecond), scale.Name, scale.Duration, w)
}

// parseWidths parses a comma-separated list of positive integers.
func parseWidths(s string) ([]int, bool) {
	var widths []int
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part == "" {
			continue
		}
		w, err := strconv.Atoi(part)
		if err != nil || w < 1 {
			return nil, false
		}
		widths = append(widths, w)
	}
	return widths, len(widths) > 0
}

func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
