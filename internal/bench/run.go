package bench

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fsys"
	"repro/internal/health"
	"repro/internal/patsy"
	"repro/internal/pfs"
	"repro/internal/sched"
	"repro/internal/stats"
)

// healInterval paces the SelfHeal cells' supervisor on either kernel.
const healInterval = 10 * time.Millisecond

// target is one instantiation the closed loop runs over: the file
// system (and through it the kernel and cache) and its array's
// members, whose member-loss code both instantiations share.
type target struct {
	fs      *fsys.FS
	members *health.Members
	// srv is the real server: it moves payload and reports its
	// cluster cap. nil on the simulator, whose transfers carry no
	// bytes.
	srv *pfs.Server
}

// RunSim drives the workload through Patsy under the virtual kernel:
// cfg.Clients closed-loop client tasks against one simulated disk
// stack per array member (a classic cell is an array of one).
// Throughput is ops per simulated second — deterministic per seed and
// machine-independent, which is what the serving study pins
// (bench_baseline.json). The simulated stack runs one cache shard and
// no clustering.
func RunSim(cfg Config) (Result, error) {
	cfg.fill()
	pcfg := patsy.Config{
		Seed:            cfg.Seed,
		ArrayVolumes:    max(cfg.Width, 1),
		Placement:       cfg.Placement,
		StripeBlocks:    cfg.StripeBlocks,
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
	if cfg.SelfHeal {
		pcfg.Fault = &device.FaultConfig{Seed: cfg.Seed}
	}
	sys, err := patsy.Build(pcfg)
	if err != nil {
		return Result{}, err
	}
	var res Result
	var runErr error
	sys.K.Go("bench.main", func(t sched.Task) {
		defer sys.K.Stop()
		if runErr = sys.Init(t); runErr != nil {
			return
		}
		if cfg.SelfHeal {
			// The server's arrangement: one hot spare and the
			// supervisor, here over simulated drives.
			if runErr = sys.AddSpare(); runErr != nil {
				return
			}
			sys.Members.Supervise(healInterval)
		}
		tg := &target{fs: sys.FS, members: sys.Members}
		res, runErr = tg.run(t, &cfg)
	})
	if err := sys.K.Run(); err != nil {
		return Result{}, err
	}
	return res, runErr
}

// RunReal drives the same loop through the real instantiation: a pfs
// server on a fresh image (set) under dir, its clients kernel tasks in
// process. Throughput is ops per wall second on this machine. The
// server's network path is measured by the benchmark module instead.
func RunReal(dir string, cfg Config) (Result, error) {
	cfg.fill()
	// Each cell formats its own image set and leaves nothing behind.
	images, err := os.MkdirTemp(dir, "bench-")
	if err != nil {
		return Result{}, err
	}
	defer os.RemoveAll(images)
	pcfg := pfs.Config{
		Path:         filepath.Join(images, "bench.img"),
		Blocks:       8192, // 32 MB image (per member on an array)
		Volumes:      cfg.Width,
		Placement:    cfg.Placement,
		StripeBlocks: cfg.StripeBlocks,
		CacheBlocks:  cfg.CacheBlocks,
		Flush:        cache.UPS(),
		Seed:         cfg.Seed,
	}
	if cfg.SelfHeal {
		pcfg.Spares = 1
		pcfg.SelfHeal = true
		pcfg.HealthInterval = healInterval
		pcfg.Fault = &device.FaultConfig{Seed: cfg.Seed}
	}
	srv, err := pfs.Open(pcfg)
	if err != nil {
		return Result{}, err
	}
	tg := &target{fs: srv.FS, members: srv.Members, srv: srv}
	var res Result
	if err := srv.Do(func(t sched.Task) (err error) {
		res, err = tg.run(t, &cfg)
		return err
	}); err != nil {
		srv.Close()
		return Result{}, err
	}
	return res, srv.Shutdown()
}

// run is the closed loop, on task t: prefill the working set, start
// the cell's member-loss arc, run cfg.Clients client tasks to
// completion and measure them. The task names, the events and the
// order they are made in are what the simulator's pinned cells
// depend on.
func (tg *target) run(t sched.Task, cfg *Config) (Result, error) {
	k, v, ms, c := tg.fs.Kernel(), tg.fs.Vol(1), tg.members, tg.fs.Cache()
	handles := make([]*fsys.Handle, cfg.Files)
	size := int64(cfg.FileBlocks) * core.BlockSize
	fill := tg.buffer(cfg.IOBytes)
	for i := range handles {
		h, err := v.EnsureFile(t, "/"+fileName(i), 0, false)
		if err != nil {
			return Result{}, err
		}
		for off := int64(0); off < size; off += int64(cfg.IOBytes) {
			n := min(int64(cfg.IOBytes), size-off)
			if err := v.WriteAt(t, h, off, payload(fill, n), n); err != nil {
				return Result{}, err
			}
		}
		handles[i] = h
	}
	// Flush the prefill: measurement starts from a steady state
	// (clean cache, data on disk), not from a cache full of setup
	// dirt that blocks readahead and skews the first ops.
	if err := tg.fs.SyncAll(t); err != nil {
		return Result{}, err
	}
	if cfg.Degrade {
		// The member dies after the prefill: the measurement runs
		// entirely against the degraded serving paths.
		if err := ms.KillMember(cfg.DegradeMember); err != nil {
			return Result{}, err
		}
	}
	base := cacheCounters(c.CacheStats(), CacheCounters{})
	baseVol := volumeCounters(ms.AllDrivers(), VolumeCounters{})
	baseStaged := ms.Array.StagedCopyBytes()
	start := k.Now()
	done := k.NewEvent("bench.done")
	// repaired closes the manual rebuild.
	repaired := k.NewEvent("bench.rebuilt")
	var repairErr error
	var rebuildDur time.Duration
	var heal health.HealEvent
	if cfg.Rebuild {
		// The online rebuild competes with the client load; the cell
		// measures serving throughput while the copy runs.
		k.Go("bench.rebuild", func(rt sched.Task) {
			defer repaired.Signal()
			t0 := k.Now()
			repairErr = ms.RebuildMember(rt, cfg.DegradeMember)
			rebuildDur = k.Now().Sub(t0)
		})
	}
	totalOps := int64(cfg.Clients) * int64(cfg.Ops)
	// ops counts completed client ops. In a SelfHeal cell the op that
	// completes the first quarter kills the member at the fault seam:
	// the supervisor must detect, promote, rebuild and verify under
	// the remaining load, and the clients serve through it.
	var ops atomic.Int64
	killAt := int64(-1)
	if cfg.SelfHeal {
		killAt = max(totalOps/4, 1)
	}
	opDone := func() {
		if ops.Add(1) == killAt {
			ms.Fault.Kill(cfg.DegradeMember)
		}
	}
	lat := stats.NewLatencyDist("bench")
	errs := make([]error, cfg.Clients)
	for ci := range errs {
		gen := newOpGen(cfg, ci)
		k.Go(fmt.Sprintf("bench.client%d", ci), func(ct sched.Task) {
			defer done.Signal()
			errs[ci] = tg.client(ct, cfg, handles, gen, lat, opDone)
		})
	}
	for range errs {
		done.Wait(t)
	}
	dur := k.Now().Sub(start)
	if cfg.Rebuild {
		repaired.Wait(t)
	}
	if cfg.SelfHeal {
		// The monitor learns of a death only from I/O the member
		// rejects. A working set the cache holds whole sends none
		// after the prefill, so the cell ends by flushing what the
		// clients dirtied: at the latest, those writes find the member
		// dead. Then the supervisor must close the incident.
		if repairErr = tg.fs.SyncAll(t); repairErr == nil {
			heal, repairErr = tg.awaitHeal(t)
		}
	}
	if (cfg.Rebuild || cfg.SelfHeal) && repairErr == nil && ms.Array.Degraded() {
		repairErr = fmt.Errorf("bench: array still degraded after the repair")
	}
	for _, h := range handles {
		v.Close(t, h)
	}
	if err := errors.Join(append(errs, repairErr)...); err != nil {
		return Result{}, err
	}

	res := Result{
		Kernel:          "virtual",
		Clients:         cfg.Clients,
		Depth:           1,
		Shards:          c.Shards(),
		Readahead:       tg.fs.Readahead(),
		Cluster:         1,
		Ops:             totalOps,
		OpsPerSec:       float64(totalOps) / dur.Seconds(),
		MBPerSec:        float64(totalOps) * float64(cfg.IOBytes) / (1 << 20) / dur.Seconds(),
		StagedCopyBytes: ms.Array.StagedCopyBytes() - baseStaged,
		Cache:           cacheCounters(c.CacheStats(), base),
		Volume:          volumeCounters(ms.AllDrivers(), baseVol),
	}
	durMS := float64(dur) / float64(time.Millisecond)
	if tg.srv == nil {
		res.SimMS = durMS
	} else {
		res.Kernel, res.WallMS = "real", durMS
		res.Cluster = tg.srv.ClusterRun()
	}
	if cfg.Placement != "" {
		res.Placement = cfg.Placement
		res.Width = cfg.Width
		res.Degraded = cfg.Degrade
		res.Rebuild = cfg.Rebuild
		res.RebuildMS = float64(rebuildDur) / float64(time.Millisecond)
	}
	if cfg.SelfHeal {
		res.SelfHeal = true
		res.DetectMS = heal.DetectMS
		res.MTTRMS = heal.MTTRMS
	}
	res.MeanMS, res.P50MS, res.P95MS, res.P99MS = quantilesMS(lat)
	return res, nil
}

// client is one closed-loop client: cfg.Ops operations from gen, each
// timed from handle resolution to close, as the NFS dispatch path
// resolves a fresh handle per call, and reported to opDone.
func (tg *target) client(ct sched.Task, cfg *Config, handles []*fsys.Handle, gen *opGen, lat *stats.LatencyDist, opDone func()) error {
	k, v := tg.fs.Kernel(), tg.fs.Vol(1)
	buf := tg.buffer(cfg.IOBytes)
	for i := 0; i < cfg.Ops; i++ {
		o := gen.next()
		t0 := k.Now()
		h, err := v.OpenByID(ct, handles[o.file].ID())
		if err != nil {
			return err
		}
		n := int64(o.n)
		if o.read {
			_, err = v.ReadAt(ct, h, o.off, payload(buf, n), n)
		} else {
			err = v.WriteAt(ct, h, o.off, payload(buf, n), n)
		}
		v.Close(ct, h)
		if err != nil {
			return fmt.Errorf("bench: client op: %w", err)
		}
		lat.Observe(k.Now().Sub(t0))
		opDone()
		if cfg.Think > 0 {
			ct.Sleep(cfg.Think)
		}
	}
	return nil
}

// awaitHeal waits, on the kernel clock, for the supervisor to close
// the incident with a clean HealEvent.
func (tg *target) awaitHeal(t sched.Task) (health.HealEvent, error) {
	k := tg.fs.Kernel()
	for deadline := k.Now().Add(60 * time.Second); k.Now() <= deadline; t.Sleep(5 * time.Millisecond) {
		if evs := tg.members.HealEvents(); len(evs) > 0 {
			if len(evs) > 1 || evs[0].Err != "" {
				return evs[0], fmt.Errorf("bench: supervised repair failed: %+v", evs)
			}
			return evs[0], nil
		}
	}
	return health.HealEvent{}, fmt.Errorf("bench: no supervised repair within 60s")
}

// buffer is an n-byte transfer buffer on the real server; nil on the
// simulator, whose transfers are sized, not carried.
func (tg *target) buffer(n int) []byte {
	if tg.srv == nil {
		return nil
	}
	return make([]byte, n)
}

// payload is buf's first n bytes, or nil when buf is.
func payload(buf []byte, n int64) []byte {
	if buf == nil {
		return nil
	}
	return buf[:n]
}
