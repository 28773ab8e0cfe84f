// Benchmarks regenerating the paper's evaluation. Each figure of
// the evaluation section has bench targets here; custom metrics
// carry the simulation results (mean latency, blocks flushed) and
// ns/op carries the simulator's own cost — the paper's "slowness of
// the simulator" lesson made measurable. The figure and ablation
// targets run through the parallel experiment engine (one simulation
// per CPU); the *Sequential variants keep the pre-engine path for
// A/B wall-clock comparison.
//
//	go test -bench=Fig2 -benchmem .
//	go test -bench=. -benchmem .
package repro

import (
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/disk"
	"repro/internal/experiments"
	"repro/internal/layout"
	"repro/internal/lfs"
	"repro/internal/patsy"
	"repro/internal/sched"
	"repro/internal/trace"
)

const benchSeed = 1996

// benchScale is the benchmark rig: small enough to iterate, loaded
// enough to queue.
func benchScale() experiments.Scale {
	s := experiments.QuickScale()
	s.Duration = 90 * time.Second
	return s
}

// runPolicy replays one (trace, policy) pair per iteration and
// reports the simulation's results as custom metrics.
func runPolicy(b *testing.B, traceName string, fc cache.FlushConfig) {
	b.Helper()
	s := benchScale()
	recs := s.Trace(traceName, benchSeed)
	var rep *patsy.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = patsy.Run(s.Config(benchSeed, fc), traceName, recs)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rep.MeanLatency().Microseconds())/1e3, "simlat-ms")
	b.ReportMetric(float64(rep.Flushed), "blk-flushed")
	b.ReportMetric(float64(rep.WallOps), "trace-ops")
	b.ReportMetric(100*rep.ReadHit, "readhit-%")
}

// --- Figure 2: latency CDF, trace 1a, four policies ---

func BenchmarkFig2Trace1aWriteDelay(b *testing.B) { runPolicy(b, "1a", cache.WriteDelay()) }
func BenchmarkFig2Trace1aUPS(b *testing.B)        { runPolicy(b, "1a", cache.UPS()) }
func BenchmarkFig2Trace1aNVRAMWhole(b *testing.B) {
	runPolicy(b, "1a", cache.NVRAMWhole(benchScale().NVRAMBlocks))
}
func BenchmarkFig2Trace1aNVRAMPartial(b *testing.B) {
	runPolicy(b, "1a", cache.NVRAMPartial(benchScale().NVRAMBlocks))
}

// --- Figure 3: latency CDF, trace 1b (parallel large writes) ---

func BenchmarkFig3Trace1bWriteDelay(b *testing.B) { runPolicy(b, "1b", cache.WriteDelay()) }
func BenchmarkFig3Trace1bUPS(b *testing.B)        { runPolicy(b, "1b", cache.UPS()) }
func BenchmarkFig3Trace1bNVRAMWhole(b *testing.B) {
	runPolicy(b, "1b", cache.NVRAMWhole(benchScale().NVRAMBlocks))
}
func BenchmarkFig3Trace1bNVRAMPartial(b *testing.B) {
	runPolicy(b, "1b", cache.NVRAMPartial(benchScale().NVRAMBlocks))
}

// --- Figure 4: latency CDF, trace 5 (large writes + stat/read) ---

func BenchmarkFig4Trace5WriteDelay(b *testing.B) { runPolicy(b, "5", cache.WriteDelay()) }
func BenchmarkFig4Trace5UPS(b *testing.B)        { runPolicy(b, "5", cache.UPS()) }
func BenchmarkFig4Trace5NVRAMWhole(b *testing.B) {
	runPolicy(b, "5", cache.NVRAMWhole(benchScale().NVRAMBlocks))
}
func BenchmarkFig4Trace5NVRAMPartial(b *testing.B) {
	runPolicy(b, "5", cache.NVRAMPartial(benchScale().NVRAMBlocks))
}

// --- Figure 5: mean latency, every trace × every policy ---

// BenchmarkFig5AllTraces regenerates the full figure through the
// parallel experiment engine (one worker per CPU).
func BenchmarkFig5AllTraces(b *testing.B) {
	s := benchScale()
	s.Duration = 45 * time.Second
	var rows []experiments.Fig5Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunFigure5(s, benchSeed, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	// Surface the headline ordering as metrics: UPS vs write-delay
	// mean across traces.
	var ups, wd time.Duration
	for _, row := range rows {
		for _, r := range row.Runs {
			switch r.Policy {
			case "ups":
				ups += r.Report.MeanLatency()
			case "writedelay":
				wd += r.Report.MeanLatency()
			}
		}
	}
	n := time.Duration(len(rows))
	if n > 0 {
		b.ReportMetric(float64((ups/n).Microseconds())/1e3, "ups-ms")
		b.ReportMetric(float64((wd/n).Microseconds())/1e3, "writedelay-ms")
	}
}

// BenchmarkFig5AllTracesSequential is the pre-engine reference path,
// the A side of the parallel engine's wall-clock comparison.
func BenchmarkFig5AllTracesSequential(b *testing.B) {
	s := benchScale()
	s.Duration = 45 * time.Second
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFigure5Sequential(s, benchSeed, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineFullQuickMatrix runs the complete quick evaluation
// matrix — every trace × every policy — as one engine batch, the
// engine's end-to-end cost per full evaluation.
func BenchmarkEngineFullQuickMatrix(b *testing.B) {
	s := benchScale()
	s.Duration = 45 * time.Second
	m := experiments.Matrix{Scale: s, Seeds: []int64{benchSeed}}
	for i := 0; i < b.N; i++ {
		results, err := experiments.Parallel().RunMatrix(m)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(results)), "sims")
		}
	}
}

// --- Ablations ---

func benchAblation(b *testing.B, run func(experiments.Scale) (string, error)) {
	b.Helper()
	s := benchScale()
	s.Duration = 45 * time.Second
	for i := 0; i < b.N; i++ {
		if _, err := run(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationReplacement(b *testing.B) {
	benchAblation(b, func(s experiments.Scale) (string, error) {
		return experiments.AblateReplacement(nil, s, "1a", benchSeed)
	})
}

func BenchmarkAblationQueueSched(b *testing.B) {
	benchAblation(b, func(s experiments.Scale) (string, error) {
		return experiments.AblateQueueSched(nil, s, "1a", benchSeed)
	})
}

func BenchmarkAblationLayoutLFSvsFFS(b *testing.B) {
	benchAblation(b, func(s experiments.Scale) (string, error) {
		return experiments.AblateLayout(nil, s, "1a", benchSeed)
	})
}

func BenchmarkAblationDiskModel(b *testing.B) {
	benchAblation(b, func(s experiments.Scale) (string, error) {
		return experiments.AblateDiskModel(nil, s, "1a", benchSeed)
	})
}

func BenchmarkAblationCleaner(b *testing.B) {
	benchAblation(b, func(s experiments.Scale) (string, error) {
		return experiments.AblateCleaner(nil, s, benchSeed)
	})
}

func BenchmarkAblationNVRAMSize(b *testing.B) {
	benchAblation(b, func(s experiments.Scale) (string, error) {
		return experiments.AblateNVRAMSize(nil, s, benchSeed)
	})
}

// --- Component micro-benchmarks ---

// BenchmarkDiskModelRandomRead measures the HP 97560 model's
// simulated random-read service time and the simulator's cost per
// simulated I/O.
func BenchmarkDiskModelRandomRead(b *testing.B) {
	k := sched.NewVirtual(benchSeed)
	d := disk.New(k, disk.HP97560("d0"), nullConn{})
	d.Start()
	var mean time.Duration
	done := make(chan struct{})
	k.Go("host", func(t sched.Task) {
		rng := k.Rand()
		var total time.Duration
		for i := 0; i < b.N; i++ {
			lba := rng.Int63n(d.CapacitySectors() - 8)
			r := &disk.IOReq{Op: disk.Read, LBA: lba, Sectors: 8, Done: k.NewEvent("io")}
			start := k.Now()
			d.Submit(t, r)
			r.Done.Wait(t)
			total += k.Now().Sub(start)
		}
		if b.N > 0 {
			mean = total / time.Duration(b.N)
		}
		close(done)
		k.Stop()
	})
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	<-done
	b.ReportMetric(float64(mean.Microseconds())/1e3, "simlat-ms")
}

// BenchmarkLFSSequentialWrite measures log-write throughput through
// the real (RAM-backed) stack.
func BenchmarkLFSSequentialWrite(b *testing.B) {
	k := sched.NewVirtual(benchSeed)
	blocks := int64(1 << 16) // 256 MB RAM device
	drv := device.NewMemDriver(k, "mem0", blocks, nil)
	part := layout.NewPartition(drv, 0, 0, blocks, false)
	l := lfs.New(k, "bench", part, lfs.DefaultConfig())
	buf := make([]byte, core.BlockSize)
	k.Go("w", func(t sched.Task) {
		l.Format(t)
		l.Mount(t)
		ino, _ := l.AllocInode(t, core.TypeRegular)
		b.ResetTimer() // exclude device allocation and format
		for i := 0; i < b.N; i++ {
			blk := core.BlockNo(i % 4096)
			l.WriteBlocks(t, ino, []layout.BlockWrite{{Blk: blk, Data: buf, Size: core.BlockSize}})
		}
		k.Stop()
	})
	b.SetBytes(core.BlockSize)
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCacheHit measures the cache's hit path.
func BenchmarkCacheHit(b *testing.B) {
	k := sched.NewVirtual(benchSeed)
	c := cache.New(k, cache.Config{Blocks: 64, Flush: cache.UPS(), Simulated: true}, nullStore{})
	c.Start()
	k.Go("u", func(t sched.Task) {
		key := core.BlockKey{Vol: 1, File: 1, Blk: 0}
		blk, _ := c.GetBlock(t, key)
		c.Filled(t, blk, core.BlockSize)
		c.Release(t, blk)
		for i := 0; i < b.N; i++ {
			blk, hit := c.GetBlock(t, key)
			if !hit {
				b.Error("unexpected miss")
			}
			c.Release(t, blk)
		}
		k.Stop()
	})
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSchedulerContextSwitch measures the virtual kernel's task
// hand-off cost — the price of one simulated event.
func BenchmarkSchedulerContextSwitch(b *testing.B) {
	k := sched.NewVirtual(benchSeed)
	k.Go("yielder", func(t sched.Task) {
		for i := 0; i < b.N; i++ {
			t.Yield()
		}
		k.Stop()
	})
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTraceGeneration measures work-load synthesis.
func BenchmarkTraceGeneration(b *testing.B) {
	p := trace.Profiles()["1a"]
	p.Volumes = 4
	var n int
	for i := 0; i < b.N; i++ {
		n = len(trace.Generate(p, benchSeed, time.Minute))
	}
	b.ReportMetric(float64(n), "records")
}

type nullConn struct{}

func (nullConn) Send(t sched.Task, n int64) time.Duration { return 0 }

type nullStore struct{}

func (nullStore) FlushBlocks(t sched.Task, blocks []*cache.Block) error { return nil }
