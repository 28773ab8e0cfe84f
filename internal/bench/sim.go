package bench

import (
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fsys"
	"repro/internal/patsy"
	"repro/internal/sched"
	"repro/internal/stats"
)

// RunSim drives the same workload through Patsy under the virtual
// kernel: cfg.Clients closed-loop client tasks against one
// simulated disk stack. Throughput is ops per simulated second —
// deterministic per seed and machine-independent, which is what the
// serving study pins (bench_baseline.json). The simulated stack
// runs one cache shard and no clustering; depth and pipeline do not
// apply (no network; VKernel concurrency is per task) and are
// reported as 1 and 0.
func RunSim(cfg Config) (Result, error) {
	cfg.fill()
	if cfg.SelfHeal {
		// The supervised-repair arc (health supervisor, wall-clock
		// timers, fault seam) lives on the real kernel only.
		return Result{}, fmt.Errorf("bench: SelfHeal cells require the real kernel")
	}
	pcfg := patsy.Config{
		Seed:            cfg.Seed,
		Buses:           1,
		DisksPerBus:     []int{1},
		Volumes:         1,
		DiskModel:       "hp97560",
		QueueSched:      "clook",
		CacheBlocks:     cfg.CacheBlocks,
		Replace:         "lru",
		Flush:           cache.UPS(),
		SegBlocks:       128,
		Cleaner:         "cost-benefit",
		Layout:          "lfs",
		ReadaheadBlocks: cfg.Readahead,
	}
	if cfg.Placement != "" {
		// Redundant cell: one disk stack per array member.
		pcfg.ArrayVolumes = cfg.Width
		pcfg.Placement = cfg.Placement
		pcfg.StripeBlocks = cfg.StripeBlocks
	}
	sys, err := patsy.Build(pcfg)
	if err != nil {
		return Result{}, err
	}
	lat := stats.NewLatencyDist("bench")
	var runErr error
	var simDur, rebuildDur time.Duration
	var base CacheCounters
	var baseVol VolumeCounters
	sys.K.Go("bench.main", func(t sched.Task) {
		defer sys.K.Stop()
		if err := sys.Init(t); err != nil {
			runErr = err
			return
		}
		v := sys.FS.Vol(1)
		handles := make([]*fsys.Handle, cfg.Files)
		size := int64(cfg.FileBlocks) * core.BlockSize
		for i := range handles {
			h, err := v.EnsureFile(t, "/"+fileName(i), 0, false)
			if err != nil {
				runErr = err
				return
			}
			for off := int64(0); off < size; off += int64(cfg.IOBytes) {
				n := int64(cfg.IOBytes)
				if off+n > size {
					n = size - off
				}
				if err := v.WriteAt(t, h, off, nil, n); err != nil {
					runErr = err
					return
				}
			}
			handles[i] = h
		}
		// Flush the prefill: measurement starts from a steady state
		// (clean cache, data on disk), not from a cache full of
		// setup dirt that blocks readahead and skews the first ops.
		if err := sys.FS.SyncAll(t); err != nil {
			runErr = err
			return
		}
		if cfg.Degrade {
			// The member dies after the prefill: the measurement runs
			// entirely against the degraded serving paths.
			if err := sys.KillMember(cfg.DegradeMember); err != nil {
				runErr = err
				return
			}
		}
		base = cacheCounters(sys.Cache.CacheStats())
		baseVol = volumeCounters(sys.Drivers)
		start := sys.K.Now()
		done := sys.K.NewEvent("bench.done")
		rebuilt := sys.K.NewEvent("bench.rebuilt")
		if cfg.Rebuild {
			// The online rebuild competes with the client load; the
			// cell measures serving throughput while the copy runs.
			sys.K.Go("bench.rebuild", func(rt sched.Task) {
				defer rebuilt.Signal()
				t0 := sys.K.Now()
				if err := sys.RebuildMember(rt, cfg.DegradeMember); err != nil && runErr == nil {
					runErr = err
					return
				}
				rebuildDur = sys.K.Now().Sub(t0)
			})
		}
		for ci := 0; ci < cfg.Clients; ci++ {
			gen := newOpGen(&cfg, ci)
			sys.K.Go(fmt.Sprintf("bench.client%d", ci), func(ct sched.Task) {
				defer done.Signal()
				for i := 0; i < cfg.Ops; i++ {
					o := gen.next()
					t0 := sys.K.Now()
					// Mirror the NFS dispatch path: resolve a fresh
					// handle per call, transfer, close.
					h, err := v.OpenByID(ct, handles[o.file].ID())
					if err != nil {
						runErr = err
						return
					}
					if o.read {
						_, err = v.ReadAt(ct, h, o.off, nil, int64(o.n))
					} else {
						err = v.WriteAt(ct, h, o.off, nil, int64(o.n))
					}
					v.Close(ct, h)
					if err != nil {
						runErr = err
						return
					}
					lat.Observe(sys.K.Now().Sub(t0))
					if cfg.Think > 0 {
						ct.Sleep(cfg.Think)
					}
				}
			})
		}
		for i := 0; i < cfg.Clients; i++ {
			done.Wait(t)
		}
		simDur = sys.K.Now().Sub(start)
		if cfg.Rebuild {
			rebuilt.Wait(t)
		}
		for _, h := range handles {
			v.Close(t, h)
		}
	})
	if err := sys.K.Run(); err != nil {
		return Result{}, err
	}
	if runErr != nil {
		return Result{}, runErr
	}
	totalOps := int64(cfg.Clients) * int64(cfg.Ops)
	res := Result{
		Kernel:    "virtual",
		Clients:   cfg.Clients,
		Depth:     1,
		Shards:    sys.Cache.Shards(),
		Pipeline:  0,
		Readahead: sys.FS.Readahead(),
		Cluster:   1,
		Ops:       totalOps,
		SimMS:     float64(simDur) / float64(time.Millisecond),
		OpsPerSec: float64(totalOps) / simDur.Seconds(),
		MBPerSec:  float64(totalOps) * float64(cfg.IOBytes) / (1 << 20) / simDur.Seconds(),
		Cache:     cacheCounters(sys.Cache.CacheStats()).sub(base),
		Volume:    volumeCounters(sys.Drivers).sub(baseVol),
	}
	if cfg.Placement != "" {
		res.Placement = cfg.Placement
		res.Width = cfg.Width
		res.Degraded = cfg.Degrade
		res.Rebuild = cfg.Rebuild
		res.RebuildMS = float64(rebuildDur) / float64(time.Millisecond)
	}
	res.MeanMS, res.P50MS, res.P95MS, res.P99MS = quantilesMS(lat)
	return res, nil
}
