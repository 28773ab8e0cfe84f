// Package patsy instantiates the cut-and-paste component library
// into the trace-driven file-system simulator: a virtual-time kernel
// drives simulated SCSI-2 buses, HP 97560 disks, C-LOOK drivers, the
// shared block cache under the flush policy being studied, a
// segmented LFS per volume, and the trace replayer on top of the
// abstract client interface.
//
// The default configuration reproduces the paper's replay of the
// Sprite traces: a Sun 4/280-class server with three SCSI buses
// connecting ten disks carrying fourteen file systems, two of them
// hot.
package patsy

import (
	"fmt"
	"time"

	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/disk"
	"repro/internal/fsys"
	"repro/internal/layout"
	"repro/internal/lfs"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/volume"
)

// Config selects the components of one simulation, every field a
// cut-and-paste policy point.
type Config struct {
	Seed int64

	// Topology.
	Buses       int
	DisksPerBus []int // len == Buses
	Volumes     int

	// Disk model: "hp97560" (default) or "naive".
	DiskModel   string
	NaiveAccess time.Duration
	// ImmediateReport can disable the disks' write caches.
	NoImmediateReport bool

	// Driver queue scheduler: fcfs, sstf, look, clook (default),
	// cscan, scan-edf.
	QueueSched string

	// Cache.
	CacheBlocks int
	Replace     string
	Flush       cache.FlushConfig
	// CacheShards lock-stripes the cache (0 or 1 = the paper's
	// single-lock cache, the byte-identical default). The virtual
	// kernel runs one task at a time, so any width stays
	// deterministic per seed; widths above 1 change contention and
	// thus the schedule.
	CacheShards int
	// ReadaheadBlocks enables sequential-read readahead in the
	// front-end (0 = off, the byte-identical default).
	ReadaheadBlocks int
	// ClusterRunBlocks caps clustered multi-block transfers per
	// device request on the data paths (0 or 1 = off, the
	// byte-identical default: every request moves one block, as the
	// paper's simulator did outside the LFS segment flush).
	ClusterRunBlocks int

	// Layout.
	SegBlocks int
	Cleaner   string
	// Layout kind: "lfs" (default) or "ffs".
	Layout string
	// MaxVolBlocks caps each volume's partition (0 = share the
	// whole disk). Small volumes make the log wrap, exercising the
	// cleaner within short traces.
	MaxVolBlocks int64

	// Host memory model.
	CopyBytesPerSec int64

	// Horizon bounds runaway simulations (0 = none).
	Horizon time.Duration

	// Volume-array mode: when ArrayVolumes >= 1 the simulator builds
	// that many independent bus + disk + driver + layout stacks and
	// mounts a single volume.Array over them as volume 1; the
	// Buses/DisksPerBus/Volumes topology fields are ignored. A width-1
	// array runs the same executor as any other, its one member taking
	// every file, and is byte-identical to the equivalent single-stack
	// system.
	ArrayVolumes int
	// Placement routes file data across the array: "affinity"
	// (default), "striped", or the redundant placements "mirrored"
	// (chained declustering) and "parity" (rotated RAID-5), which
	// keep serving through a member death (System.KillMember /
	// RebuildMember).
	Placement string
	// StripeBlocks is the striped placement's chunk width.
	StripeBlocks int

	// Fault, when set, installs one shared fault plan on every
	// driver — the injectable device stack. Nil leaves the stack
	// untouched (the byte-identical default).
	Fault *device.FaultConfig
	// CrashAt, when positive, cuts the power at that instant of
	// virtual time: the replay halts, the fault plan trips, the
	// cache's crash state is captured into Report.Crash — and, with
	// CrashRecover set, recovery runs inside the same simulation
	// (remount scan, NVRAM replay, checkpoint) so its virtual-time
	// cost is measured. Zero disables all of it.
	CrashAt time.Duration
	// CrashRecover runs (and times) recovery after the cut.
	CrashRecover bool
	// IntentLog attaches the namespace intent log to the cache, so a
	// crash study also measures acknowledged-namespace-op exposure.
	// Off by default: the pre-intent-log studies stay byte-identical.
	IntentLog bool
}

// CrashInfo is what a crash-instrumented run observed at (and after)
// the power cut.
type CrashInfo struct {
	At         time.Duration `json:"at"`
	Policy     string        `json:"policy"`
	Persistent bool          `json:"persistent"`
	// SurvivorBlocks counts dirty blocks the policy's battery-backed
	// domain preserved; LostBlocks the ones volatile memory lost.
	SurvivorBlocks int `json:"survivor_blocks"`
	LostBlocks     int `json:"lost_blocks"`
	// LossWindow is the age of the oldest lost dirty block — how far
	// back acknowledged writes are missing.
	LossWindow time.Duration `json:"loss_window"`
	// DiskVolatileBytes counts immediate-reported bytes still in the
	// drives' volatile caches — exposure no host policy can remove.
	DiskVolatileBytes int64 `json:"disk_volatile_bytes"`
	// Recovery timing (CrashRecover only).
	Recovered      bool          `json:"recovered"`
	RecoveryTime   time.Duration `json:"recovery_time"`
	ReplayedBlocks int           `json:"replayed_blocks"`
	DroppedBlocks  int           `json:"dropped_blocks"`
	// Namespace is the intent log's crash exposure, present only when
	// Config.IntentLog is on (pre-intent-log study output is
	// byte-identical otherwise).
	Namespace *NamespaceCrashInfo `json:"namespace,omitempty"`
}

// NamespaceCrashInfo measures acknowledged namespace operations
// (create/remove/rename/truncate/symlink) across a power cut: how
// many unretired intents the battery-backed domain preserved or a
// volatile policy lost, and what the replay did with the survivors.
type NamespaceCrashInfo struct {
	Ops             uint64        `json:"ops"`
	SurvivorIntents int           `json:"survivor_intents"`
	LostIntents     int           `json:"lost_intents"`
	LossWindow      time.Duration `json:"loss_window"`
	Replayed        int           `json:"replayed"`
	Noop            int           `json:"noop"`
	Dropped         int           `json:"dropped"`
}

// intentSlotsIf maps the IntentLog switch to the cache knob.
func intentSlotsIf(on bool) int {
	if on {
		return 1024
	}
	return 0
}

// DefaultConfig is the paper's Sprite replay setup with the flush
// policy left to the experiment: 3 SCSI-2 buses, 10 HP 97560 disks
// (4+3+3), 14 LFS volumes, a 64 MB cache (16384 4 KB blocks).
func DefaultConfig(seed int64, flush cache.FlushConfig) Config {
	return Config{
		Seed:        seed,
		Buses:       3,
		DisksPerBus: []int{4, 3, 3},
		Volumes:     14,
		DiskModel:   "hp97560",
		QueueSched:  "clook",
		CacheBlocks: 16384,
		Replace:     "lru",
		Flush:       flush,
		SegBlocks:   128,
		Cleaner:     "cost-benefit",
		Layout:      "lfs",
	}
}

// NVRAMBlocks4MB is the paper's 4 MB NVRAM in cache blocks.
const NVRAMBlocks4MB = (4 << 20) / core.BlockSize

// System is an assembled simulator.
type System struct {
	Cfg     Config
	K       *sched.VKernel
	FS      *fsys.FS
	Cache   *cache.Cache
	Buses   []*bus.Bus
	Disks   []*disk.Disk
	Drivers []device.Driver
	Layouts []layout.Layout
	Array   *volume.Array     // non-nil in array mode
	Fault   *device.FaultPlan // non-nil when Config.Fault is set
	Set     *stats.Set
}

// Build assembles the components. Volumes are formatted and mounted
// by Init, which must run inside a kernel task (Run does both).
func Build(cfg Config) (*System, error) {
	if cfg.ArrayVolumes >= 1 {
		// Array mode: one bus + disk + driver stack per array
		// member, assembled in the same order the classic topology
		// uses so a width-1 array matches it exactly.
		cfg.Buses = cfg.ArrayVolumes
		cfg.DisksPerBus = make([]int, cfg.ArrayVolumes)
		for i := range cfg.DisksPerBus {
			cfg.DisksPerBus[i] = 1
		}
		cfg.Volumes = 1
	}
	if cfg.Buses <= 0 || len(cfg.DisksPerBus) != cfg.Buses {
		return nil, fmt.Errorf("patsy: bad bus topology: %d buses, %v disks", cfg.Buses, cfg.DisksPerBus)
	}
	if cfg.Volumes <= 0 {
		return nil, fmt.Errorf("patsy: need at least one volume")
	}
	k := sched.NewVirtual(cfg.Seed)
	if cfg.Horizon > 0 {
		k.SetHorizon(sched.Time(cfg.Horizon))
	}
	sys := &System{Cfg: cfg, K: k, Set: stats.NewSet()}

	// Buses and disks.
	for b := 0; b < cfg.Buses; b++ {
		bb := bus.New(k, bus.SCSI2(fmt.Sprintf("scsi%d", b)))
		bb.Stats(sys.Set)
		sys.Buses = append(sys.Buses, bb)
		for d := 0; d < cfg.DisksPerBus[b]; d++ {
			name := fmt.Sprintf("disk%d", len(sys.Disks))
			var p disk.Params
			switch cfg.DiskModel {
			case "", "hp97560":
				p = disk.HP97560(name)
			case "naive":
				acc := cfg.NaiveAccess
				if acc <= 0 {
					acc = 15 * time.Millisecond
				}
				p = disk.Naive(name, acc)
			default:
				return nil, fmt.Errorf("patsy: unknown disk model %q", cfg.DiskModel)
			}
			if cfg.NoImmediateReport {
				p.ImmediateReport = false
			}
			dd := disk.New(k, p, bb)
			dd.Stats(sys.Set)
			dd.Start()
			sys.Disks = append(sys.Disks, dd)
			q, ok := device.NewScheduler(orDefault(cfg.QueueSched, "clook"))
			if !ok {
				return nil, fmt.Errorf("patsy: unknown queue scheduler %q", cfg.QueueSched)
			}
			drv := device.NewSimDriver(k, name+".drv", dd, bb, q)
			drv.DriverStats().Register(sys.Set)
			sys.Drivers = append(sys.Drivers, drv)
		}
	}
	if cfg.Fault != nil {
		sys.Fault = device.NewFaultPlan(*cfg.Fault)
		for _, drv := range sys.Drivers {
			drv.SetInjector(sys.Fault)
		}
	}
	if len(sys.Disks) == 0 {
		return nil, fmt.Errorf("patsy: no disks configured")
	}

	// Cache and front-end.
	store := fsys.NewStore()
	c := cache.New(k, cache.Config{
		Blocks:    cfg.CacheBlocks,
		Replace:   cfg.Replace,
		Flush:     cfg.Flush,
		Simulated: true,
		Shards:    cfg.CacheShards,
		// With clustering on, shard by run-sized chunks so dirty
		// runs stay whole; chunk 1 (the default) is the classic map.
		ShardChunk:  cfg.ClusterRunBlocks,
		IntentSlots: intentSlotsIf(cfg.IntentLog),
	}, store)
	c.Stats(sys.Set)
	mover := &core.SimMover{BytesPerSec: orDefault64(cfg.CopyBytesPerSec, 80<<20), FixedNS: 2000}
	fs := fsys.New(k, c, mover)
	if cfg.ReadaheadBlocks > 0 {
		fs.SetReadahead(cfg.ReadaheadBlocks)
	}
	fs.Stats(sys.Set)
	store.Bind(fs)
	c.Start()
	sys.Cache = c
	sys.FS = fs
	return sys, nil
}

func orDefault(s, d string) string {
	if s == "" {
		return d
	}
	return s
}

func orDefault64(v, d int64) int64 {
	if v <= 0 {
		return d
	}
	return v
}

// Init formats and mounts the volumes, spreading them round-robin
// over the disks and splitting each disk evenly among its volumes.
// In array mode it instead builds one sub-layout per disk stack and
// mounts a single volume.Array over them. It must run inside a
// kernel task.
func (s *System) Init(t sched.Task) error {
	cfg := s.Cfg
	if cfg.ArrayVolumes >= 1 {
		return s.initArray(t)
	}
	perDisk := make([][]int, len(s.Disks))
	for v := 0; v < cfg.Volumes; v++ {
		d := v % len(s.Disks)
		perDisk[d] = append(perDisk[d], v)
	}
	for d, vols := range perDisk {
		if len(vols) == 0 {
			continue
		}
		capacity := s.Drivers[d].CapacityBlocks()
		share := capacity / int64(len(vols))
		size := share
		if cfg.MaxVolBlocks > 0 && size > cfg.MaxVolBlocks {
			size = cfg.MaxVolBlocks
		}
		for i, v := range vols {
			start := int64(i) * share
			part := layout.NewPartition(s.Drivers[d], d, start, size, true)
			lay, err := s.newLayout(fmt.Sprintf("vol%d", v+1), part)
			if err != nil {
				return err
			}
			if err := lay.Format(t); err != nil {
				return fmt.Errorf("patsy: format vol%d: %w", v+1, err)
			}
			if err := lay.Mount(t); err != nil {
				return fmt.Errorf("patsy: mount vol%d: %w", v+1, err)
			}
			lay.Stats(s.Set)
			if _, err := s.FS.AddVolume(t, core.VolumeID(v+1), lay, true); err != nil {
				return err
			}
			s.Layouts = append(s.Layouts, lay)
		}
	}
	return nil
}

// newLayout builds one concrete sub-layout on a partition.
func (s *System) newLayout(name string, part *layout.Partition) (layout.Layout, error) {
	cfg := s.Cfg
	var lay layout.Layout
	switch orDefault(cfg.Layout, "lfs") {
	case "lfs":
		lcfg := lfs.DefaultConfig()
		if cfg.SegBlocks > 0 {
			lcfg.SegBlocks = cfg.SegBlocks
		}
		lcfg.Cleaner = orDefault(cfg.Cleaner, "cost-benefit")
		lay = lfs.New(s.K, name, part, lcfg)
	case "ffs":
		lay = ffsNew(s.K, name, part)
	default:
		return nil, fmt.Errorf("patsy: unknown layout %q", cfg.Layout)
	}
	if cfg.ClusterRunBlocks > 1 {
		lay.SetClusterRun(cfg.ClusterRunBlocks)
	}
	return lay, nil
}

// initArray formats and mounts a volume array: one full-disk
// partition and sub-layout per stack, a volume.Array over them,
// mounted as volume 1.
func (s *System) initArray(t sched.Task) error {
	cfg := s.Cfg
	w := cfg.ArrayVolumes
	subs := make([]layout.Layout, w)
	for i := 0; i < w; i++ {
		size := s.Drivers[i].CapacityBlocks()
		if cfg.MaxVolBlocks > 0 && size > cfg.MaxVolBlocks {
			size = cfg.MaxVolBlocks
		}
		part := layout.NewPartition(s.Drivers[i], i, 0, size, true)
		name := "vol1"
		if w > 1 {
			name = fmt.Sprintf("vol1.d%d", i)
		}
		sub, err := s.newLayout(name, part)
		if err != nil {
			return err
		}
		subs[i] = sub
	}
	arr, err := volume.New(s.K, "vol1", subs, volume.Config{
		Placement:    cfg.Placement,
		StripeBlocks: cfg.StripeBlocks,
		Simulated:    true,
	})
	if err != nil {
		return err
	}
	if err := arr.Format(t); err != nil {
		return fmt.Errorf("patsy: format array: %w", err)
	}
	if err := arr.Mount(t); err != nil {
		return fmt.Errorf("patsy: mount array: %w", err)
	}
	arr.Stats(s.Set)
	if _, err := s.FS.AddVolume(t, core.VolumeID(1), arr, true); err != nil {
		return err
	}
	s.Array = arr
	s.Layouts = append(s.Layouts, arr)
	return nil
}

// Report is one simulation's results.
type Report struct {
	Policy     string
	TraceName  string
	Result     *trace.Result
	ReadHit    float64
	Flushed    int64
	Saved      int64
	NVRAMWaits int64
	DirtyHW    int64
	WallOps    int
	SimTime    time.Duration

	// Crash is the power-cut observation of a crash-instrumented run
	// (Config.CrashAt), nil otherwise.
	Crash *CrashInfo

	// Front-end byte totals, for aggregate-throughput reporting.
	BytesRead    int64
	BytesWritten int64
	// PerVolume is the per-disk-stack I/O split (driver truth,
	// cleaner traffic included) — the array-level balance report.
	PerVolume []VolIO
}

// VolIO is one disk stack's block I/O totals, with the request
// counts alongside so transfer sizes (blocks per request — the
// clustering win) are visible, not just raw traffic.
type VolIO struct {
	Name          string
	BlocksRead    int64
	BlocksWritten int64
	Reads         int64 // read requests issued to the driver
	Writes        int64 // write requests issued to the driver
}

// DiskBlocks sums the report's per-volume disk traffic.
func (r *Report) DiskBlocks() int64 {
	var sum int64
	for _, v := range r.PerVolume {
		sum += v.BlocksRead + v.BlocksWritten
	}
	return sum
}

// DiskRequests sums the report's per-volume driver requests.
func (r *Report) DiskRequests() int64 {
	var sum int64
	for _, v := range r.PerVolume {
		sum += v.Reads + v.Writes
	}
	return sum
}

// BlocksPerRequest is the mean transfer size the disks saw — the
// per-request-overhead amortization the clustering study measures.
func (r *Report) BlocksPerRequest() float64 {
	if reqs := r.DiskRequests(); reqs > 0 {
		return float64(r.DiskBlocks()) / float64(reqs)
	}
	return 0
}

// MeanLatency is the headline number of Figure 5.
func (r *Report) MeanLatency() time.Duration { return r.Result.Overall.Mean() }

// Run builds the system, replays recs and collects the report. This
// is the one-call experiment entry point.
func Run(cfg Config, traceName string, recs []trace.Record) (*Report, error) {
	sys, err := Build(cfg)
	if err != nil {
		return nil, err
	}
	rep := trace.NewReplayer(sys.FS, recs)
	var runErr error
	var crash *CrashInfo
	var crashDone sched.Event
	if cfg.CrashAt > 0 {
		crashDone = sys.K.NewEvent("patsy.crashdone")
	}
	sys.K.Go("patsy.main", func(t sched.Task) {
		if err := sys.Init(t); err != nil {
			runErr = err
			sys.K.Stop()
			return
		}
		if cfg.CrashAt > 0 {
			sys.K.Go("patsy.crash", func(ct sched.Task) {
				crash = sys.crashTask(ct, rep)
				crashDone.Signal()
			})
		}
		rep.Run(t)
		if crashDone != nil {
			crashDone.Wait(t)
		}
		sys.K.Stop()
	})
	if err := sys.K.Run(); err != nil {
		return nil, err
	}
	if runErr != nil {
		return nil, runErr
	}
	cs := sys.Cache.CacheStats()
	fss := sys.FS.FSStats()
	perVol := make([]VolIO, len(sys.Drivers))
	for i, drv := range sys.Drivers {
		ds := drv.DriverStats()
		perVol[i] = VolIO{
			Name:          drv.Name(),
			BlocksRead:    ds.BlocksRead.Value(),
			BlocksWritten: ds.BlocksWritten.Value(),
			Reads:         ds.Reads.Value(),
			Writes:        ds.Writes.Value(),
		}
	}
	return &Report{
		Policy:       cfg.Flush.Name,
		Crash:        crash,
		TraceName:    traceName,
		Result:       rep.Result(),
		ReadHit:      fss.ReadHitRate(),
		Flushed:      cs.FlushedBlocks.Value(),
		Saved:        cs.SavedWrites.Value(),
		NVRAMWaits:   cs.NVRAMWaits.Value(),
		DirtyHW:      cs.DirtyHW.Value(),
		WallOps:      rep.Result().Ops,
		SimTime:      time.Duration(sys.K.Now()),
		BytesRead:    fss.BytesRead.Value(),
		BytesWritten: fss.BytesWritten.Value(),
		PerVolume:    perVol,
	}, nil
}
