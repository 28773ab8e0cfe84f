package bench

import (
	"os"
	"path/filepath"

	"repro/internal/cache"
	"repro/internal/device"
	"repro/internal/pfs"
	"repro/internal/sched"
)

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
	tg := &target{fs: srv.FS, members: srv.Members, real: true, cluster: srv.ClusterRun()}
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
