// Command benchmark is the repository's one reproducible benchmark:
// five fixed-work workloads over the two instantiations of the
// component library (PFS on the real kernel, Patsy on the virtual
// one), end-to-end metrics from an untraced run and per-layer metrics
// from a separate traced run. README.md explains every workload and
// metric; BENCHMARK.json at the root of the repository is the
// contract a regression gate reads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

// options are the settings of one run.
type options struct {
	workload   string
	seed       int64
	measureFor time.Duration
	traced     bool
	smoke      bool
	repeat     int
	outDir     string
	imageDir   string
	cpuProfile string
	memProfile string

	nproc int
	// workers is the number of closed-loop client workers: two, and
	// never more than the machine has processors.
	workers int
	// setups is how often a run sets the workload up and measures;
	// setup_s is the median.
	setups         int
	remountSamples int
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run in this process: "+fmt.Sprint(workloadNames())+" (empty: the whole suite, one child process each)")
	fs.Int64Var(&o.seed, "seed", 1996, "seed of the op generators")
	seconds := fs.Float64("seconds", 10, "how long to keep measuring fixed-work windows")
	trace := fs.Int("trace", 0, "1: the traced run (per-layer metrics, span file); 0: the untraced run (end-to-end metrics)")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny sizing that only checks the harness; its numbers mean nothing")
	fs.IntVar(&o.repeat, "repeat", 0, "run the suite N times with N seeds and report the spread of every end-to-end metric")
	fs.StringVar(&o.outDir, "out", filepath.Join(".bench_build", "out"), "directory for result, span and profile files")
	fs.StringVar(&o.imageDir, "imagedir", "", "directory for disk images (default: <out>/../img)")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the measured windows to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a heap profile taken after the measured windows to this file")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	o.measureFor = time.Duration(*seconds * float64(time.Second))
	o.traced = *trace != 0
	o.nproc = runtime.NumCPU()
	o.workers = min(2, o.nproc)
	o.setups, o.remountSamples = 3, 512
	if o.smoke {
		o.measureFor, o.setups, o.remountSamples = 0, 1, 32
	}
	if o.imageDir == "" {
		o.imageDir = filepath.Join(filepath.Dir(filepath.Clean(o.outDir)), "img")
	}
	return o, nil
}

func (o options) startCPUProfile() (stop func(), err error) {
	if o.cpuProfile == "" {
		return func() {}, nil
	}
	f, err := os.Create(o.cpuProfile)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

func (o options) writeMemProfile() error {
	if o.memProfile == "" {
		return nil
	}
	f, err := os.Create(o.memProfile)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func workloadNames() []string {
	var names []string
	for _, wl := range pfsWorkloads {
		names = append(names, wl.Name)
	}
	return append(names, simTraceName)
}

// runWorkload runs o.workload in this process.
func runWorkload(o options) (*result, error) {
	for _, dir := range []string{o.outDir, o.imageDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	if o.workload == simTraceName {
		if o.traced {
			return traceSim(o)
		}
		return runSim(o)
	}
	for _, wl := range pfsWorkloads {
		if wl.Name != o.workload {
			continue
		}
		if o.smoke {
			wl = wl.smoke()
		}
		if o.traced {
			return tracePFS(wl, o)
		}
		return runPFS(wl, o)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", o.workload, workloadNames())
}

// pinProcs runs the process on one P unless GOMAXPROCS is set in the
// environment. The two vCPUs of the VM this benchmark is judged on do
// not behave like two cores: with both busy, whole runs flip between
// two speeds 25-30% apart for minutes at a time (sim_trace, one
// goroutine plus the collector, between 57k and 80k records/s), and
// nothing measured inside a 20 s run survives that. On one P the same
// ten-seed study repeats to 3-6%. What is given up is parallel
// speed-up and lock contention; the two workers still keep two calls
// in flight.
//
// The traced run is left on every P: it has no bound to keep, and on
// one P its fsys rung — two workers calling the front-end directly, as
// fast as it answers — outruns the device worker until sequential
// readahead has claimed every frame of a cache shard and the cache
// panics ("shard exhausted"). That is the repository's defect, met
// while building this benchmark and left for its own issue.
func pinProcs() {
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(1)
	}
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if !o.traced {
		pinProcs()
	}
	if o.workload == "" {
		os.Exit(runSuite(o))
	}
	res, err := runWorkload(o)
	if err == nil {
		err = res.writeFile(o)
	}
	var line []byte
	if err == nil {
		line, err = json.Marshal(res.line())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if res.Failed > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %d of %d operations failed\n", res.Failed, res.Attempted)
		os.Exit(1)
	}
}
