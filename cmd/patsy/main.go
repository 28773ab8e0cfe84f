// Command patsy runs off-line file-system simulations: pick a trace
// profile (or a recorded trace file), a flush policy — or "all" to
// compare the paper's four concurrently on the experiment engine —
// and the component configuration, replay, and print the
// measurements.
//
//	patsy -trace 1a -policy ups -duration 10m
//	patsy -trace 1b -policy all
//	patsy -tracefile sprite.tr -policy writedelay -stats
//	patsy -trace 1a -volumes 4 -placement striped -stripe 8
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cache"
	"repro/internal/experiments"
	"repro/internal/trace"
)

func main() {
	var (
		traceName = flag.String("trace", "1a", "trace profile: 1a 1b 2a 2b 3 4 5")
		traceFile = flag.String("tracefile", "", "replay a recorded trace file instead")
		format    = flag.String("format", "sprite", "trace file format: sprite or coda")
		policy    = flag.String("policy", "writedelay", "flush policy: writedelay, ups, nvram-whole, nvram-partial, or all")
		nvramKB   = flag.Int("nvram", 4096, "NVRAM size in KB for the nvram policies")
		scaleName = flag.String("scale", "paper", "topology scale: paper or quick")
		duration  = flag.Duration("duration", 10*time.Minute, "trace duration")
		seed      = flag.Int64("seed", experiments.DefaultSeed, "deterministic seed")
		workers   = flag.Int("workers", 0, "concurrent simulations for -policy all (0 = one per CPU)")
		replace   = flag.String("replace", "lru", "cache replacement: lru random lfu slru lru2")
		qsched    = flag.String("qsched", "clook", "disk queue scheduler: fcfs, sstf, look or clook")
		layoutN   = flag.String("layout", "lfs", "storage layout: lfs or ffs")
		diskModel = flag.String("disk", "hp97560", "disk model: hp97560 or naive")
		volumes   = flag.Int("volumes", 0, "volume-array width: build this many bus+disk+layout stacks behind one volume manager (0 = classic multi-volume topology)")
		placement = flag.String("placement", "affinity", "array placement policy: affinity, striped, mirrored, or parity")
		stripe    = flag.Int("stripe", 8, "stripe/chunk width in 4KB blocks for striped and redundant placements")
		cluster   = flag.Int("cluster", 0, "clustered-transfer run cap in blocks (0 or 1 = off, the classic simulator)")
		showCDF   = flag.Bool("cdf", false, "print the full latency CDF")
		showInt   = flag.Bool("intervals", false, "print 15-minute interval reports")
	)
	flag.Parse()

	var scale experiments.Scale
	switch *scaleName {
	case "paper":
		scale = experiments.PaperScale()
	case "quick":
		scale = experiments.QuickScale()
	default:
		fatalf("unknown scale %q", *scaleName)
	}
	scale.Duration = *duration
	if *volumes > 0 {
		// Array mode: one front-end volume over a -volumes wide
		// array; the trace targets that single volume.
		scale = experiments.ArrayScale(scale)
	}

	nvBlocks := *nvramKB / 4
	var policies []cache.FlushConfig
	switch fc, ok := cache.FlushPolicy(*policy, nvBlocks); {
	case ok:
		policies = []cache.FlushConfig{fc}
	case *policy == "all":
		policies = []cache.FlushConfig{
			cache.WriteDelay(), cache.UPS(),
			cache.NVRAMWhole(nvBlocks), cache.NVRAMPartial(nvBlocks),
		}
	default:
		fatalf("unknown policy %q", *policy)
	}

	var recs []trace.Record
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			fatalf("open trace: %v", err)
		}
		codec, ok := trace.NewFormat(*format)
		if !ok {
			fatalf("unknown format %q", *format)
		}
		recs, err = codec.Read(f)
		f.Close()
		if err != nil {
			fatalf("read trace: %v", err)
		}
	} else {
		recs = scale.Trace(*traceName, *seed)
	}

	// Every run — single policy or comparison — is a job matrix on
	// the experiment engine; one job per policy, shared records.
	jobs := make([]experiments.Job, len(policies))
	for i, fc := range policies {
		cfg := scale.Config(*seed, fc)
		cfg.Replace = *replace
		cfg.QueueSched = *qsched
		cfg.Layout = *layoutN
		cfg.DiskModel = *diskModel
		cfg.ClusterRunBlocks = *cluster
		if *volumes > 0 {
			cfg.ArrayVolumes = *volumes
			cfg.Placement = *placement
			cfg.StripeBlocks = *stripe
		}
		jobs[i] = experiments.Job{
			Cell: experiments.Cell{Trace: *traceName, Policy: fc.Name, Seed: *seed},
			Cfg:  cfg,
			Recs: recs,
		}
	}
	start := time.Now()
	results, err := (&experiments.Engine{Workers: *workers}).Run(jobs)
	if err != nil {
		fatalf("simulation: %v", err)
	}
	wall := time.Since(start).Round(time.Millisecond)

	for i, res := range results {
		if i > 0 {
			fmt.Println()
		}
		rep := res.Report
		fmt.Printf("trace %s, policy %s: %d ops in %v simulated\n",
			rep.TraceName, rep.Policy, rep.WallOps, rep.SimTime.Round(time.Second))
		fmt.Printf("mean latency      %v\n", rep.MeanLatency().Round(time.Microsecond))
		fmt.Printf("p50 / p90 / p99   %v / %v / %v\n",
			rep.Result.Overall.Quantile(0.5).Round(time.Microsecond),
			rep.Result.Overall.Quantile(0.9).Round(time.Microsecond),
			rep.Result.Overall.Quantile(0.99).Round(time.Microsecond))
		fmt.Printf("read hit rate     %.1f%%\n", 100*rep.ReadHit)
		fmt.Printf("blocks flushed    %d\n", rep.Flushed)
		fmt.Printf("writes saved      %d\n", rep.Saved)
		fmt.Printf("nvram waits       %d\n", rep.NVRAMWaits)
		fmt.Printf("dirty high water  %d blocks\n", rep.DirtyHW)
		fmt.Printf("errors            %d\n", rep.Result.Errors)
		if *volumes > 1 {
			fmt.Printf("per-volume blocks ")
			for i, v := range rep.PerVolume {
				if i > 0 {
					fmt.Printf("  ")
				}
				fmt.Printf("%s r%d/w%d", v.Name, v.BlocksRead, v.BlocksWritten)
			}
			fmt.Println()
		}
		if *showInt {
			fmt.Println("\nintervals:")
			for _, iv := range rep.Result.Intervals.Reports {
				fmt.Printf("  %s\n", iv)
			}
		}
		if *showCDF {
			fmt.Println()
			fmt.Println(rep.Result.Overall.Render())
		}
	}
	fmt.Printf("\n(%d simulation(s), %v wall)\n", len(results), wall)
}

func fatalf(f string, args ...any) {
	fmt.Fprintf(os.Stderr, f+"\n", args...)
	os.Exit(1)
}
