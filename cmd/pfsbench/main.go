// Command pfsbench is the serving-path load harness and the CI perf
// gate. In bench mode it drives the closed-loop workload of
// internal/bench against both instantiations of the component
// library — the real pfs+nfs server over loopback TCP and Patsy
// under the virtual kernel — for each client count, and writes the
// cells (ops/sec, p50/p95/p99, cache and volume counters) as JSON.
// In compare mode it gates a fresh result file against a committed
// baseline.
//
//	pfsbench -quick -out BENCH_3.json
//	pfsbench -quick -kernel virtual -out bench_baseline.json   # refresh the CI baseline
//	pfsbench -quick -clients 4 -shards 1 -pipeline 1 -readahead -1   # the "before" engine
//	pfsbench -compare BENCH_3.json -baseline bench_baseline.json
//
// Real-kernel cells measure this machine (wall-clock ops/sec);
// virtual-kernel cells are deterministic ops per simulated second,
// machine-independent — which is why the committed baseline pins
// them. The gate ignores cells missing from the baseline, so the
// matrix can grow freely.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	var (
		quick     = flag.Bool("quick", false, "CI smoke sizing (8 MB working set over a 4 MB cache, 300 ops/client)")
		kernel    = flag.String("kernel", "both", "which instantiation to drive: real, virtual, or both")
		clients   = flag.String("clients", "1,4", "comma-separated client counts")
		depth     = flag.Int("depth", 4, "pipelined calls in flight per real client connection")
		ops       = flag.Int("ops", 0, "ops per client (0 = mode default)")
		shards    = flag.Int("shards", 0, "cache shards (0 = instantiation default: 8 real, 1 virtual)")
		pipeline  = flag.Int("pipeline", 0, "per-connection NFS window (0 = default, 1 = no pipelining)")
		readahead = flag.Int("readahead", 0, "readahead blocks (0 = instantiation default: 8 real, off virtual; -1 = off)")
		cluster   = flag.Int("cluster", 0, "clustered-transfer run cap in blocks (0 = instantiation default: 16 real, off virtual; -1 = off)")
		workload  = flag.String("workload", "", "comma-separated canned workloads per cell: coldstream (pure streaming reads), writeburst (pure random writes); empty = the classic 80/20 mix")
		think     = flag.Duration("think", 0, "per-op client think time")
		seed      = flag.Int64("seed", 1996, "workload seed")
		scrape    = flag.Bool("scrape", false, "boot the admin endpoint per real cell and embed /metrics deltas in the JSON")
		placement = flag.String("placement", "", "redundant array placement for every cell: mirrored or parity (empty = classic single stack)")
		width     = flag.Int("width", 3, "array width when -placement is set")
		stripe    = flag.Int("stripeblocks", 0, "chunk width for redundant placements (0 = volume default)")
		degraded  = flag.Bool("degraded", false, "kill a member after the prefill so cells measure degraded serving (needs -placement)")
		degMember = flag.Int("degmember", 1, "which member -degraded kills")
		rebuild   = flag.Bool("rebuild", false, "run the online rebuild concurrently with the measurement (implies -degraded)")
		selfheal  = flag.Bool("selfheal", false, "kill a member at the fault seam mid-measurement and serve through the supervised repair — detection, spare promotion, online rebuild, scrub verify (real kernel only; implies -placement mirrored when unset)")
		redundant = flag.Bool("redundant", false, "append the redundant-serving cells (mirrored+parity x healthy+degraded, 4 clients) to the matrix — the CI gate's degraded coverage")
		out       = flag.String("out", "", "write the JSON result file here (default stdout)")
		dir       = flag.String("dir", "", "directory for real-kernel image files (default TMPDIR)")
		note      = flag.String("note", "", "free-form note recorded in the file")
		zeroStage = flag.String("assertzerostaged", "", "assert mode: every clustered real-kernel classic cell in this result file must report zero staged-copy bytes")
		compare   = flag.String("compare", "", "compare mode: gate this result file against -baseline")
		baseline  = flag.String("baseline", "bench_baseline.json", "baseline file for -compare")
		threshold = flag.Float64("threshold", 0.25, "max allowed ops/sec regression for -compare")
	)
	flag.Parse()

	if *compare != "" {
		os.Exit(runCompare(*compare, *baseline, *threshold))
	}
	if *zeroStage != "" {
		os.Exit(runZeroStaged(*zeroStage))
	}

	counts, err := parseCounts(*clients)
	die(err)
	workloads, err := parseWorkloads(*workload)
	die(err)
	file := &bench.File{Bench: 3, GOMAXPROCS: runtime.GOMAXPROCS(0), Note: *note}
	imgDir := *dir
	if imgDir == "" {
		imgDir = os.TempDir()
	}
	for _, c := range counts {
		for _, wl := range workloads {
			cfg := bench.Quick(c)
			if !*quick {
				cfg.Ops = 1000
				cfg.Files = 16
				cfg.FileBlocks = 256
				cfg.CacheBlocks = 2048
			}
			cfg.Depth = *depth
			cfg.Seed = *seed
			cfg.Think = *think
			cfg.Shards = *shards
			cfg.Pipeline = *pipeline
			cfg.Readahead = *readahead
			cfg.Cluster = *cluster
			cfg.Workload = wl
			cfg.Scrape = *scrape
			cfg.Placement = *placement
			cfg.Width = *width
			cfg.StripeBlocks = *stripe
			cfg.Degrade = *degraded
			cfg.DegradeMember = *degMember
			cfg.Rebuild = *rebuild
			cfg.SelfHeal = *selfheal
			if *ops > 0 {
				cfg.Ops = *ops
			}
			if (*kernel == "virtual" || *kernel == "both") && !cfg.SelfHeal {
				start := time.Now()
				res, err := bench.RunSim(cfg)
				die(err)
				file.Runs = append(file.Runs, res)
				progress(res, time.Since(start))
			}
			if *kernel == "real" || *kernel == "both" {
				start := time.Now()
				res, err := bench.RunReal(imgDir, cfg)
				die(err)
				file.Runs = append(file.Runs, res)
				progress(res, time.Since(start))
			}
		}
	}
	if *redundant {
		// The fixed redundant matrix: mirrored and parity at width 3,
		// healthy and degraded, 4 clients — the cells the committed
		// baseline pins so a degraded-path slowdown fails the gate.
		for _, pl := range []string{"mirrored", "parity"} {
			for _, degr := range []bool{false, true} {
				cfg := bench.Quick(4)
				if !*quick {
					cfg.Ops = 1000
					cfg.Files = 16
					cfg.FileBlocks = 256
					cfg.CacheBlocks = 2048
				}
				cfg.Seed = *seed
				cfg.Placement = pl
				cfg.Degrade = degr
				cfg.DegradeMember = 1
				if *kernel == "virtual" || *kernel == "both" {
					start := time.Now()
					res, err := bench.RunSim(cfg)
					die(err)
					file.Runs = append(file.Runs, res)
					progress(res, time.Since(start))
				}
				if *kernel == "real" || *kernel == "both" {
					start := time.Now()
					res, err := bench.RunReal(imgDir, cfg)
					die(err)
					file.Runs = append(file.Runs, res)
					progress(res, time.Since(start))
				}
			}
		}
	}
	data, err := file.Encode()
	die(err)
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	die(os.WriteFile(*out, data, 0o644))
	fmt.Printf("wrote %s (%d cells)\n", *out, len(file.Runs))
}

func progress(r bench.Result, wall time.Duration) {
	fmt.Fprintf(os.Stderr, "%-32s %10.1f ops/sec %8.1f MB/s  p50 %6.2fms  p95 %6.2fms  p99 %6.2fms  hit %4.1f%%  blk/req %5.2f  staged %s  (%v)\n",
		r.Key(), r.OpsPerSec, r.MBPerSec, r.P50MS, r.P95MS, r.P99MS, 100*r.Cache.HitRate, r.Volume.BlocksPerReq,
		sizeStr(r.StagedCopyBytes), wall.Round(time.Millisecond))
}

// sizeStr renders a byte count compactly for the progress line.
func sizeStr(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// runZeroStaged is the zero-copy gate: on a real-kernel cell with
// clustering on, payload must flow cache-frame-to-iovec with no
// staging memcpy, so staged_copy_bytes must be exactly zero. Virtual
// cells (no payload in the sim) and redundant placements (parity
// arithmetic stages by construction) are exempt.
func runZeroStaged(path string) int {
	f, err := readFile(path)
	die(err)
	checked, bad := 0, 0
	for _, r := range f.Runs {
		if r.Kernel != "real" || r.Cluster < 2 || r.Placement != "" {
			continue
		}
		checked++
		if r.StagedCopyBytes != 0 {
			fmt.Printf("STAGED COPIES %s: %d bytes memcpy'd on a clustered cell\n", r.Key(), r.StagedCopyBytes)
			bad++
		}
	}
	fmt.Printf("pfsbench zero-staged: %d clustered real cells checked, %d dirty\n", checked, bad)
	if bad > 0 {
		return 1
	}
	if checked == 0 {
		fmt.Println("WARNING: no cells matched the zero-staged gate")
	}
	return 0
}

func runCompare(currentPath, baselinePath string, threshold float64) int {
	cur, err := readFile(currentPath)
	die(err)
	base, err := readFile(baselinePath)
	die(err)
	regs := bench.Compare(cur, base, threshold)
	matched := 0
	keys := make(map[string]bool, len(base.Runs))
	for _, r := range base.Runs {
		keys[r.Key()] = true
	}
	for _, r := range cur.Runs {
		if keys[r.Key()] {
			matched++
		}
	}
	fmt.Printf("pfsbench compare: %d cells, %d gated against %s (threshold %.0f%%)\n",
		len(cur.Runs), matched, baselinePath, 100*threshold)
	if len(regs) == 0 {
		fmt.Println("OK: no ops/sec regression")
		return 0
	}
	for _, r := range regs {
		fmt.Printf("REGRESSION %s\n", r)
	}
	return 1
}

func readFile(path string) (*bench.File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return bench.Decode(data)
}

func parseCounts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -clients entry %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-clients is empty")
	}
	return out, nil
}

func parseWorkloads(s string) ([]string, error) {
	if strings.TrimSpace(s) == "" {
		return []string{""}, nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		switch part {
		case "coldstream", "writeburst":
			out = append(out, part)
		case "":
		default:
			return nil, fmt.Errorf("bad -workload entry %q (want coldstream or writeburst)", part)
		}
	}
	if len(out) == 0 {
		return []string{""}, nil
	}
	return out, nil
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
