// Package pfs instantiates the cut-and-paste component library into
// the on-line Pegasus file system: the same cache, layout and
// abstract-client components the simulator runs, bound to the
// real-time kernel, a real memory arena, a Unix file (or raw device)
// as the disk back-end, and the NFS-like network front-end. This is
// the paper's point: nothing here is a reimplementation — only the
// helper components differ from Patsy. The members, the array and
// the cache/front-end come from the same builder Patsy uses
// (internal/stack); pfs supplies the file drivers. So does the crash
// lifecycle: Server.Crash hands back a stack.Battery and Open with
// Config.Recover replays it through stack.Mount, the recovery Patsy's
// simulated power cut runs too; pfs keeps the teardown of a recovery
// that fails (RecoveryError). Past Open, the server holds its kernel
// as a sched.Kernel.
package pfs

import (
	"fmt"
	"os"
	"slices"
	"time"

	"repro/internal/cache"
	"repro/internal/device"
	"repro/internal/fsys"
	"repro/internal/health"
	"repro/internal/layout"
	"repro/internal/nfs"
	"repro/internal/sched"
	"repro/internal/stack"
	"repro/internal/telemetry"
	"repro/internal/volume"
)

// Config describes one PFS instance.
type Config struct {
	// Path is the backing Unix file (created and sized if absent).
	// With Volumes > 1 it is the base name: member i backs onto
	// "<Path>.v<i>".
	Path string
	// Blocks is the per-volume size in 4 KB blocks.
	Blocks int64
	// Volumes is the disk-array width: that many independent image +
	// driver + LFS stacks behind one volume.Array (default 1, the
	// classic single-volume server).
	Volumes int
	// Placement routes file data across the array: "affinity"
	// (default), "striped", or the redundant placements "mirrored"
	// (chained declustering) and "parity" (rotated RAID-5), which
	// keep serving through a member death (Server.Members'
	// KillMember / RebuildMember).
	Placement string
	// StripeBlocks is the striped placement's chunk width.
	StripeBlocks int
	// CacheBlocks sizes the block cache (default 4096 = 16 MB).
	CacheBlocks int
	// CacheShards lock-stripes the cache so concurrent NFS clients
	// stop convoying on one mutex: 0 = the default (8), 1 = the
	// classic single-lock cache, negative is invalid.
	CacheShards int
	// ClusterRunBlocks caps clustered multi-block transfers — the
	// run size a single device request may carry on the data paths
	// (cache flush writes, readahead fills, LFS roll-forward):
	// 0 = the default (layout.DefaultClusterRun, clustering on),
	// negative = off (one block per request).
	ClusterRunBlocks int
	// Flush selects the write policy (default: the UPS write-saving
	// policy the paper's experiments recommend).
	Flush cache.FlushConfig
	// SegBlocks sizes LFS segments.
	SegBlocks int
	// Seed drives policy randomness.
	Seed int64
	// Layout selects the per-member storage layout: "lfs" (default)
	// or "ffs".
	Layout string
	// Fault, when set, installs a shared fault plan on every member's
	// driver: injected I/O errors, torn writes, and the power cut the
	// crash harness drives. The plan is reachable as Server.Fault.
	Fault *device.FaultConfig
	// Dead lists array members to declare dead before the mount — the
	// degraded reopen after a member loss, when the member's image is
	// stale (or gone) and its share must be served from redundancy.
	// Requires a redundant placement; at most one member (the
	// single-fault model). Members.RebuildMember brings the member
	// back.
	Dead []int
	// Recover, when set, recovers an existing image set from the
	// battery a Server.Crash handed back, in one mount: layout
	// recovery (LFS roll-forward / FFS repair / array-wide repairs),
	// the partial-parity records, the NVRAM intents and survivors,
	// then a sync. The battery is retired only when that sync
	// succeeds: if recovery fails (say, a second power cut), Open
	// tears the half-open server down as a crash and returns a
	// *RecoveryError carrying the merged battery. The report lands in
	// Server.Recovery. A fresh image set is formatted as usual and
	// refuses a battery that holds anything. nil = the plain mount.
	Recover *stack.Battery
	// SlowOpThreshold sets the tracer's slow-op capture threshold
	// (0 = telemetry.DefaultSlowThreshold).
	SlowOpThreshold time.Duration
	// NoIntentLog disables the metadata intent log. By default the
	// on-line server records every acknowledged namespace operation
	// into a battery-backed intent ring (it survives Crash with the
	// dirty blocks), closing the create+write+crash loss hole; this
	// switch restores the checkpoint-only discipline for A/B runs.
	NoIntentLog bool
	// Spares sizes the hot-spare pool: that many idle, pre-built
	// member stacks backed by "<Path>.s<j>", attached to the array
	// and promoted automatically (SelfHeal) or via PromoteSpare.
	Spares int
	// SelfHeal runs the repair supervisor: a health monitor samples
	// per-member driver evidence, and a confirmed death is isolated,
	// rebuilt onto a spare and scrub-verified with no operator call.
	// It also unhooks the fault plan's instant OnKill → KillMember
	// shortcut so deaths are detected from the evidence (the array's
	// own lazy ErrDiskDead detection keeps it serving meanwhile).
	SelfHeal bool
	// HealthInterval paces the supervisor's evidence sampling
	// (0 = 25ms).
	HealthInterval time.Duration
}

// Server is a running PFS.
type Server struct {
	K     sched.Kernel
	FS    *fsys.FS
	Vol   *fsys.Volume
	Cache *cache.Cache
	Array *volume.Array
	// Members holds the array's member and spare drivers and runs
	// member loss: kill, rebuild, spare promotion and (with
	// Config.SelfHeal) the supervisor and its health monitor.
	Members *health.Members
	// Fault is the installed fault plan (nil without Config.Fault).
	Fault *device.FaultPlan
	// Recovery reports what the recovery mount repaired and replayed
	// (nil unless Config.Recover ran against an existing image set).
	Recovery *stack.RecoveryReport
	// Tracer carries per-operation latency breakdowns from the NFS
	// executor down through the cache and disk paths.
	Tracer *telemetry.Tracer

	cluster int // the effective run-size cap /statusz reports (1 = off)
	net     *nfs.Server
	admin   *telemetry.Server
}

// StagedCopyBytes reports how many payload bytes the layouts copied
// into buffers of their own instead of scatter-gathering straight
// from cache frames (short blocks, writes that failed mid-flush).
func (s *Server) StagedCopyBytes() int64 { return s.Array.StagedCopyBytes() }

// Open creates or reopens a PFS on cfg.Path. A fresh image (set) is
// formatted; an existing one is mounted and recovered from its
// checkpoint. With Volumes > 1 the server runs on a disk array: one
// image, driver and LFS per member behind a volume.Array, whose
// on-image label guards against reopening with the wrong geometry.
// A failed Open releases everything it built — drivers, cache
// flushers, kernel — without a sync: a mount that fails is torn down
// like a crash. A fresh image set goes back to empty images, so the
// next Open formats it again.
func Open(cfg Config) (*Server, error) {
	if cfg.CacheShards < 0 {
		return nil, fmt.Errorf("pfs: invalid CacheShards %d (0 = the default, 1 = one lock)", cfg.CacheShards)
	}
	if cfg.Blocks <= 0 {
		cfg.Blocks = 16384 // 64 MB
	}
	if cfg.CacheBlocks <= 0 {
		cfg.CacheBlocks = 4096
	}
	if cfg.Flush.Name == "" {
		cfg.Flush = cache.UPS()
	}
	if cfg.Volumes <= 0 {
		cfg.Volumes = 1
	}
	if cfg.CacheShards == 0 {
		cfg.CacheShards = 8
	}
	if cfg.ClusterRunBlocks == 0 {
		cfg.ClusterRunBlocks = layout.DefaultClusterRun
	}
	if cfg.ClusterRunBlocks < 1 {
		cfg.ClusterRunBlocks = 1
	}
	k := sched.NewReal(cfg.Seed)
	// The server's half of the one assembly: payload-moving members
	// (spares and rebuilt members too) with the configured layout,
	// cluster cap and placement.
	st := stack.Config{
		Layout:       cfg.Layout,
		SegBlocks:    cfg.SegBlocks,
		ClusterRun:   cfg.ClusterRunBlocks,
		Placement:    cfg.Placement,
		StripeBlocks: cfg.StripeBlocks,
	}

	var plan *device.FaultPlan
	if cfg.Fault != nil {
		plan = device.NewFaultPlan(*cfg.Fault)
	}
	// Until the cache is up, a failed open releases the drivers built
	// so far and the kernel; no layout has touched the images yet.
	var built []device.Driver
	fresh := false
	fail := func(err error) (*Server, error) {
		for _, drv := range built {
			drv.Close()
		}
		k.Stop()
		if fresh {
			unmakeImages(cfg)
		}
		return nil, err
	}
	dead := make(map[int]bool, len(cfg.Dead))
	for _, m := range cfg.Dead {
		if m < 0 || m >= cfg.Volumes {
			return fail(fmt.Errorf("pfs: dead member %d out of range (%d volumes)", m, cfg.Volumes))
		}
		dead[m] = true
	}
	freshCount := 0
	for i := 0; i < cfg.Volumes; i++ {
		path, _ := memberPath(cfg, i)
		// A dead member's image is stale or missing; its freshness says
		// nothing about the array (the driver below recreates a missing
		// file as an inert placeholder).
		if !dead[i] {
			f, err := isFresh(path)
			if err != nil {
				return fail(err)
			}
			if f {
				freshCount++
			}
		}
	}
	alive := cfg.Volumes - len(dead)
	if freshCount != 0 && freshCount != alive {
		return fail(fmt.Errorf("pfs: inconsistent array image set under %s: %d of %d members are fresh",
			cfg.Path, freshCount, alive))
	}
	if freshCount != 0 && len(dead) > 0 {
		return fail(fmt.Errorf("pfs: cannot open a fresh image set under %s with a dead member declared", cfg.Path))
	}
	fresh = freshCount == cfg.Volumes
	if b := cfg.Recover; fresh && b != nil && len(b.Survivors)+len(b.Intents)+len(slices.Concat(b.Parity...)) > 0 {
		return fail(fmt.Errorf("pfs: battery to recover (%d survivors, %d intents, %d parity records) but the image set under %s is fresh",
			len(b.Survivors), len(b.Intents), len(slices.Concat(b.Parity...)), cfg.Path))
	}
	parts := make([]*layout.Partition, cfg.Volumes)
	drvs := make([]device.Driver, cfg.Volumes)
	for i := range drvs {
		path, name := memberPath(cfg, i)
		drv, err := openDriver(k, cfg, plan, path, name)
		if err != nil {
			return fail(err)
		}
		drvs[i], parts[i] = drv, st.Partition(drv, i, 0, cfg.Blocks)
		built = append(built, drv)
	}
	lay, err := st.Array(k, "pfs", parts)
	if err != nil {
		return fail(err)
	}
	media := images{k, cfg, plan}
	members := &health.Members{
		K: k, Array: lay, Stack: st, Name: "pfs", Blocks: cfg.Blocks,
		Fault: plan, Media: media, Drivers: drvs,
	}
	for m := range dead {
		if err := lay.KillMember(m); err != nil {
			return fail(err)
		}
	}
	if plan != nil && !cfg.SelfHeal {
		// A death fault at the driver seam marks the member dead in the
		// volume manager the instant it trips, so the very next I/O is
		// already served from redundancy (the array would also notice
		// lazily from the first ErrDiskDead). Non-redundant placements
		// refuse the kill and keep surfacing raw I/O errors.
		//
		// Self-heal mode skips this shortcut on purpose: isolating the
		// member instantly would starve the drivers of the ErrDiskDead
		// evidence the health monitor detects deaths from. The array's
		// lazy detection (first dead error from live traffic) keeps the
		// window to a handful of failed requests.
		plan.OnKill(func(m int) { _ = lay.KillMember(m) })
	}
	// Spares start from an unformatted image (a stale one from an
	// interrupted promotion is dropped).
	for j := 0; j < cfg.Spares; j++ {
		drv, err := media.fresh(sparePath(cfg, j))
		if err != nil {
			return fail(err)
		}
		built = append(built, drv)
		if err := members.AddSpare(drv); err != nil {
			return fail(err)
		}
	}
	fs, c := st.FrontEnd(k, cache.Config{
		Blocks:      cfg.CacheBlocks,
		Flush:       cfg.Flush,
		Shards:      cfg.CacheShards,
		IntentSlots: stack.IntentSlots(!cfg.NoIntentLog),
	})
	fs.SetReadahead(8) // sequential readahead window, in blocks

	tr := telemetry.NewTracer(k, cfg.SlowOpThreshold)
	fs.SetTracer(tr)

	srv := &Server{K: k, FS: fs, Cache: c, Array: lay, Members: members, Fault: plan, Tracer: tr, cluster: cfg.ClusterRunBlocks}
	if plan != nil {
		// The instant the cut trips, the cache stops issuing flushes:
		// a dead machine writes nothing more.
		plan.OnCut(c.PowerOff)
	}

	err = srv.Do(func(t sched.Task) (err error) {
		srv.Recovery, err = stack.Mount(t, fs, fresh, cfg.Recover, lay)
		srv.Vol = fs.Vol(1)
		return err
	})
	if err == nil && srv.Recovery != nil && plan != nil && plan.HasCut() {
		// The cut tripped on a background write after the recovery's
		// closing sync: the power is out all the same, so the battery
		// stays.
		err = device.ErrPowerCut
	}
	if err != nil {
		// A failed mount writes nothing more: tear the half-open server
		// down as a crash. A recovery's battery stays unretired, merged
		// with whatever the failed recovery left in the domain.
		b := srv.Crash()
		if fresh {
			unmakeImages(cfg)
		}
		if cfg.Recover != nil {
			return nil, &RecoveryError{Battery: stack.MergeBatteries(cfg.Recover, b), Err: err}
		}
		return nil, err
	}
	if cfg.SelfHeal {
		members.Supervise(cfg.HealthInterval)
	}
	return srv, nil
}

// RecoveryError is a recovery mount that failed. The half-open server
// was torn down as a crash; Battery is what the domain holds now — the
// battery the recovery started from merged with the one its own crash
// left — and the next recovery must start from it.
type RecoveryError struct {
	Battery *stack.Battery
	Err     error
}

func (e *RecoveryError) Error() string { return "pfs: recovery: " + e.Err.Error() }
func (e *RecoveryError) Unwrap() error { return e.Err }

// memberPath names member i's backing image and component prefix.
func memberPath(cfg Config, i int) (path, name string) {
	path = cfg.Path
	if cfg.Volumes > 1 {
		path = fmt.Sprintf("%s.v%d", cfg.Path, i)
	}
	return path, stack.MemberName("pfs", cfg.Volumes, i)
}

// sparePath names spare slot j's backing image and component prefix.
func sparePath(cfg Config, j int) (path, name string) {
	return fmt.Sprintf("%s.s%d", cfg.Path, j), fmt.Sprintf("pfs.s%d", j)
}

// openDriver opens the file driver over one backing image (created and
// sized if absent) behind the driver's C-LOOK queue, with the fault
// plan installed.
func openDriver(k sched.Kernel, cfg Config, plan *device.FaultPlan, path, name string) (device.Driver, error) {
	drv, err := device.NewFileDriver(k, name+"disk", path, cfg.Blocks, nil)
	if err != nil {
		return nil, err
	}
	if plan != nil {
		drv.SetInjector(plan)
	}
	return drv, nil
}

// unmakeImages truncates the member images of a fresh set whose Open
// failed back to empty: sized but never formatted, they would read as
// an existing set that fails to mount.
func unmakeImages(cfg Config) {
	for i := 0; i < cfg.Volumes; i++ {
		path, _ := memberPath(cfg, i)
		_ = os.Truncate(path, 0)
	}
}

// isFresh reports whether path is missing or empty (needs Format).
func isFresh(path string) (bool, error) {
	fi, err := os.Stat(path)
	if os.IsNotExist(err) {
		return true, nil
	}
	if err != nil {
		return false, err
	}
	return fi.Size() == 0, nil
}

// ServeNFS exposes the volume over the network protocol; addr
// "127.0.0.1:0" picks a free port. Returns the bound address.
func (s *Server) ServeNFS(addr string) (string, error) {
	srv, err := nfs.Serve(s.K, s.FS, addr, nfs.Options{Tracer: s.Tracer})
	if err != nil {
		return "", err
	}
	s.net = srv
	return srv.Addr(), nil
}

// Do runs fn on a kernel task and waits — the local (in-process)
// client interface.
func (s *Server) Do(fn func(t sched.Task) error) error {
	errc := make(chan error, 1)
	s.K.Go("pfs.client", func(t sched.Task) { errc <- fn(t) })
	return <-errc
}

// Sync flushes everything to the image.
func (s *Server) Sync() error {
	return s.Do(func(t sched.Task) error { return s.FS.SyncAll(t) })
}

// Close syncs, stops the network front-end and the kernel. Open
// connections are cut; use Shutdown for a graceful exit.
func (s *Server) Close() error {
	s.stopSupervisor()
	err := s.Sync()
	s.halt()
	return err
}

// halt stops the front-ends, then the cache's flusher tasks (the
// kernel cannot unwind them) and the kernel, and releases the drivers.
func (s *Server) halt() {
	if s.admin != nil {
		_ = s.admin.Close()
	}
	if s.net != nil {
		s.net.Close()
	}
	_ = s.Do(func(t sched.Task) error {
		s.Cache.Close(t)
		return nil
	})
	s.K.Stop()
	s.Members.Close()
}

// AllDrivers snapshots the member drivers plus any retired by a
// repair (see health.Members.AllDrivers).
func (s *Server) AllDrivers() []device.Driver { return s.Members.AllDrivers() }

// Crash simulates a power cut: the fault plan (if any) is tripped so
// nothing further reaches the images, the cache is frozen, and the
// kernel halts WITHOUT any sync. It returns the battery — the cache's
// surviving dirty blocks and intents plus the array's pending
// partial-parity records, everything the battery-backed domain held
// at the cut. Reopen the same configuration with Config.Recover set
// to it; the battery is retired only when that recovery's final sync
// succeeds (a failed one hands back the merged battery instead).
func (s *Server) Crash() *stack.Battery {
	if s.Fault != nil {
		s.Fault.Cut()
	}
	// With the power out, an in-flight supervised rebuild fails fast
	// (every I/O is an ErrPowerCut rejection); wait it out so nothing
	// races the teardown.
	s.stopSupervisor()
	s.Cache.PowerOff()
	var cr *cache.CrashReport
	_ = s.Do(func(t sched.Task) error { cr = s.Cache.Crash(t); return nil })
	s.halt()
	return stack.ReadBattery(cr, s.Array)
}

// Shutdown is the graceful exit: stop accepting network calls, let
// every in-flight request complete and its reply reach the wire,
// then sync all volumes (the array fans the final flush out over its
// members concurrently) and stop the kernel.
func (s *Server) Shutdown() error {
	s.stopSupervisor()
	if s.net != nil {
		s.net.Drain()
	}
	err := s.Sync()
	s.halt()
	return err
}
