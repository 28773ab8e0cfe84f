package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/nfs"
	"repro/internal/pfs"
	"repro/internal/stats"
)

// RunReal drives the real instantiation: a pfs server (fresh image
// under dir) behind its NFS front-end on a loopback TCP port,
// hammered by cfg.Clients connections. It runs the healthy and the
// supervised-repair (SelfHeal) cells; the degraded and rebuilding
// cells are deterministic and run on the virtual kernel (RunSim).
// Returns the measured cell.
func RunReal(dir string, cfg Config) (Result, error) {
	cfg.fill()
	if cfg.Degrade {
		return Result{}, fmt.Errorf("bench: degraded and rebuilding cells run on the virtual kernel")
	}
	tag := placementTag(cfg)
	if cfg.SelfHeal {
		tag += "-selfheal"
	}
	img := filepath.Join(dir, fmt.Sprintf("bench-c%d%s.img", cfg.Clients, tag))
	pcfg := pfs.Config{
		Path:        img,
		Blocks:      8192, // 32 MB image (per member on an array)
		CacheBlocks: cfg.CacheBlocks,
		Flush:       cache.UPS(),
		Seed:        cfg.Seed,
	}
	if cfg.Placement != "" {
		pcfg.Volumes = cfg.Width
		pcfg.Placement = cfg.Placement
		pcfg.StripeBlocks = cfg.StripeBlocks
	}
	if cfg.SelfHeal {
		pcfg.Spares = 1
		pcfg.SelfHeal = true
		pcfg.HealthInterval = 10 * time.Millisecond
		pcfg.Fault = &device.FaultConfig{Seed: cfg.Seed}
	}
	removeImages := func() {
		os.Remove(img)
		for i := 0; i < cfg.Width; i++ {
			os.Remove(fmt.Sprintf("%s.v%d", img, i))
			os.Remove(fmt.Sprintf("%s.s%d", img, i))
		}
	}
	removeImages()
	srv, err := pfs.Open(pcfg)
	if err != nil {
		return Result{}, err
	}
	done := false
	defer func() {
		if !done {
			srv.Close()
		}
		removeImages()
	}()
	addr, err := srv.ServeNFS("127.0.0.1:0")
	if err != nil {
		return Result{}, err
	}

	// Build the working set through one setup connection.
	setup, err := nfs.Dial(addr)
	if err != nil {
		return Result{}, err
	}
	root, _, err := setup.Mount(1)
	if err != nil {
		setup.Close()
		return Result{}, err
	}
	fhs := make([]nfs.FH, cfg.Files)
	chunk := make([]byte, nfs.MaxIO)
	for i := range chunk {
		chunk[i] = byte(i)
	}
	for i := 0; i < cfg.Files; i++ {
		fh, _, err := setup.Create(root, fileName(i))
		if err != nil {
			setup.Close()
			return Result{}, fmt.Errorf("bench: create %s: %w", fileName(i), err)
		}
		fhs[i] = fh
		size := int64(cfg.FileBlocks) * core.BlockSize
		for off := int64(0); off < size; off += int64(len(chunk)) {
			n := int64(len(chunk))
			if off+n > size {
				n = size - off
			}
			if _, err := setup.Write(fh, off, chunk[:n]); err != nil {
				setup.Close()
				return Result{}, fmt.Errorf("bench: prefill %s: %w", fileName(i), err)
			}
		}
	}
	setup.Close()
	// Flush the prefill so measurement starts from a steady state
	// (clean cache, data on the image).
	if err := srv.Sync(); err != nil {
		return Result{}, err
	}
	base := cacheCounters(srv.Cache.CacheStats())
	baseVol := volumeCounters(srv.AllDrivers())
	baseStaged := srv.StagedCopyBytes()

	// Closed loop: every client connection owns a deterministic
	// operation stream and keeps one call in flight.
	lat := stats.NewLatencyDist("bench")
	var wg sync.WaitGroup
	errc := make(chan error, cfg.Clients)
	clients := make([]*nfs.Client, cfg.Clients)
	for i := range clients {
		if cfg.SelfHeal {
			// Repair-window realism: the clients ride the transient-fault
			// retry transport, the way a deployment serving through a
			// member death would.
			clients[i], err = nfs.DialRetry(addr, nfs.RetryConfig{
				Attempts: 6, Window: 1, Seed: cfg.Seed + int64(i) + 1,
			})
		} else {
			clients[i], err = nfs.DialPipeline(addr, 1)
		}
		if err != nil {
			return Result{}, err
		}
		defer clients[i].Close()
	}
	start := time.Now()
	if cfg.SelfHeal {
		// Kill the member at the fault seam shortly into the measurement:
		// the supervisor must detect, promote and rebuild under this load.
		go func() {
			time.Sleep(25 * time.Millisecond)
			srv.Fault.Kill(cfg.DegradeMember)
		}()
	}
	for ci := 0; ci < cfg.Clients; ci++ {
		cl := clients[ci]
		gen := newOpGen(&cfg, ci)
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, cfg.IOBytes)
			for i := range buf {
				buf[i] = byte(i)
			}
			for i := 0; i < cfg.Ops; i++ {
				o := gen.next()
				t0 := time.Now()
				var err error
				if o.read {
					_, err = cl.Read(fhs[o.file], o.off, o.n)
				} else {
					_, err = cl.Write(fhs[o.file], o.off, buf[:o.n])
				}
				if err != nil {
					errc <- err
					return
				}
				lat.Observe(time.Since(t0))
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	select {
	case err := <-errc:
		return Result{}, fmt.Errorf("bench: client op: %w", err)
	default:
	}
	var healEv pfs.HealEvent
	if cfg.SelfHeal {
		// The repair may still be running when the clients drain; wait
		// for the supervisor to close the incident.
		deadline := time.Now().Add(60 * time.Second)
		for {
			if evs := srv.HealEvents(); len(evs) > 0 {
				healEv = evs[0]
				break
			}
			if time.Now().After(deadline) {
				return Result{}, fmt.Errorf("bench: no supervised repair within 60s of the kill")
			}
			time.Sleep(5 * time.Millisecond)
		}
		if healEv.Err != "" {
			return Result{}, fmt.Errorf("bench: supervised repair failed: %s", healEv.Err)
		}
		if srv.Array.Degraded() {
			return Result{}, fmt.Errorf("bench: array still degraded after supervised repair")
		}
	}

	totalOps := int64(cfg.Clients) * int64(cfg.Ops)
	res := Result{
		Kernel:          "real",
		Clients:         cfg.Clients,
		Depth:           1,
		Shards:          srv.Cache.Shards(),
		Pipeline:        nfs.DefaultPipeline,
		Readahead:       srv.FS.Readahead(),
		Cluster:         srv.ClusterRun(),
		Ops:             totalOps,
		WallMS:          float64(wall) / float64(time.Millisecond),
		OpsPerSec:       float64(totalOps) / wall.Seconds(),
		MBPerSec:        float64(totalOps) * float64(cfg.IOBytes) / (1 << 20) / wall.Seconds(),
		StagedCopyBytes: srv.StagedCopyBytes() - baseStaged,
		Cache:           cacheCounters(srv.Cache.CacheStats()).sub(base),
		Volume:          volumeCounters(srv.AllDrivers()).sub(baseVol),
		Placement:       cfg.Placement,
		Width:           cfg.Width,
	}
	if cfg.SelfHeal {
		res.SelfHeal = true
		res.DetectMS = healEv.DetectMS
		res.MTTRMS = healEv.MTTRMS
	}
	res.MeanMS, res.P50MS, res.P95MS, res.P99MS = quantilesMS(lat)
	done = true
	return res, srv.Shutdown()
}
