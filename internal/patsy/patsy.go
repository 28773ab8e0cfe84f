// Package patsy instantiates the cut-and-paste component library
// into the trace-driven file-system simulator: a virtual-time kernel
// drives simulated SCSI-2 buses, HP 97560 disks, C-LOOK drivers, the
// shared block cache under the flush policy being studied, the
// volumes — each a volume.Array over one segmented LFS (or FFS) per
// member partition — and the trace replayer on top of the abstract
// client interface. Patsy builds the buses, disks and drivers; the
// members, arrays and cache/front-end come from the builder the
// on-line server uses (internal/stack), with its Simulated flag set,
// and so does crash recovery: after a simulated power cut Patsy
// remounts its arrays on a fresh front-end through the server's
// recovery (stack.Mount), keeping only the cut and the exposure
// measurements (crash.go) for itself.
//
// The default configuration reproduces the paper's replay of the
// Sprite traces: a Sun 4/280-class server with three SCSI buses
// connecting ten disks carrying fourteen file systems, two of them
// hot.
package patsy

import (
	"cmp"
	"fmt"
	"time"

	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/disk"
	"repro/internal/fsys"
	"repro/internal/health"
	"repro/internal/layout"
	"repro/internal/sched"
	"repro/internal/stack"
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

	// Disk model: "hp97560" (default) or "naive" (a fixed 15 ms
	// access).
	DiskModel string

	// Driver queue scheduler: fcfs, sstf, look (or scan), clook
	// (default, or c-look).
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

	// Every volume is a volume.Array. By default each of the Volumes
	// is a one-member array on its share of a disk. Array mode, when
	// ArrayVolumes >= 1, builds that many independent bus + disk +
	// driver + layout stacks instead and mounts one array of that
	// width over them as volume 1; the Buses/DisksPerBus/Volumes
	// topology fields are ignored. Both modes build their arrays the
	// same way, and a width-1 array is the same volume either way.
	ArrayVolumes int
	// Placement routes file data across the array: "affinity"
	// (default), "striped", or the redundant placements "mirrored"
	// (chained declustering) and "parity" (rotated RAID-5), which
	// keep serving through a member death (System.Members).
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
	// CrashRecover set, recovery runs inside the same simulation so
	// its virtual-time cost is measured. Zero disables all of it.
	CrashAt time.Duration
	// CrashRecover runs (and times) recovery after the cut: the
	// server's recovery mount (stack.Mount: layout recovery, parity
	// and NVRAM replay, a closing sync) on a fresh front-end over the
	// same arrays, as a rebooted server would. A recovery that fails
	// fails Run. Report's counters stay those of the replay's
	// front-end.
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
	Volumes []*volume.Array   // by volume ID - 1
	Fault   *device.FaultPlan // non-nil when Config.Fault is set
	// Members runs member loss on the array-mode array — kill,
	// rebuild, spares, the self-heal supervisor — with the server's
	// code (set by Init; nil outside array mode).
	Members *health.Members
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
	sys := &System{Cfg: cfg, K: sched.NewVirtual(cfg.Seed)}

	if cfg.Fault != nil {
		sys.Fault = device.NewFaultPlan(*cfg.Fault)
	}
	// Buses and disks.
	for b := 0; b < cfg.Buses; b++ {
		bb := sys.addBus()
		for d := 0; d < cfg.DisksPerBus[b]; d++ {
			drv, err := sys.addDisk(bb)
			if err != nil {
				return nil, err
			}
			sys.Drivers = append(sys.Drivers, drv)
		}
	}
	if len(sys.Disks) == 0 {
		return nil, fmt.Errorf("patsy: no disks configured")
	}

	sys.FS, sys.Cache = sys.frontEnd()
	return sys, nil
}

// frontEnd builds a block cache and file-system front-end with its
// flushers started: Build's, and the fresh one a crash recovery
// remounts the volumes on.
func (s *System) frontEnd() (*fsys.FS, *cache.Cache) {
	fs, c := s.stackConfig().FrontEnd(s.K, cache.Config{
		Blocks:      s.Cfg.CacheBlocks,
		Replace:     s.Cfg.Replace,
		Flush:       s.Cfg.Flush,
		Shards:      s.Cfg.CacheShards,
		IntentSlots: stack.IntentSlots(s.Cfg.IntentLog),
	})
	if s.Cfg.ReadaheadBlocks > 0 {
		fs.SetReadahead(s.Cfg.ReadaheadBlocks)
	}
	return fs, c
}

// addBus builds the next SCSI bus.
func (s *System) addBus() *bus.Bus {
	bb := bus.New(s.K, bus.SCSI2(fmt.Sprintf("scsi%d", len(s.Buses))))
	s.Buses = append(s.Buses, bb)
	return bb
}

// addDisk builds the next disk on bb, starts it, and returns its
// driver, the fault plan (if any) installed.
func (s *System) addDisk(bb *bus.Bus) (device.Driver, error) {
	name := fmt.Sprintf("disk%d", len(s.Disks))
	var p disk.Params
	switch s.Cfg.DiskModel {
	case "", "hp97560":
		p = disk.HP97560(name)
	case "naive":
		p = disk.Naive(name, 15*time.Millisecond)
	default:
		return nil, fmt.Errorf("patsy: unknown disk model %q", s.Cfg.DiskModel)
	}
	dd := disk.New(s.K, p, bb)
	dd.Start()
	s.Disks = append(s.Disks, dd)
	q, ok := device.NewScheduler(cmp.Or(s.Cfg.QueueSched, "clook"))
	if !ok {
		return nil, fmt.Errorf("patsy: unknown queue scheduler %q", s.Cfg.QueueSched)
	}
	drv := device.NewSimDriver(s.K, name+".drv", dd, bb, q)
	if s.Fault != nil {
		drv.SetInjector(s.Fault)
	}
	return drv, nil
}

// AddSpare builds one more bus + disk + driver stack, as Build does
// for an array member, and attaches it to the array's hot-spare pool
// (array mode only; call after Init).
func (s *System) AddSpare() error {
	if s.Members == nil {
		return fmt.Errorf("patsy: spare: not in array mode")
	}
	drv, err := s.addDisk(s.addBus())
	if err != nil {
		return err
	}
	return s.Members.AddSpare(drv)
}

// Replacement is the drive a manual rebuild of member m writes to:
// the member's own simulated drive, standing in for a swapped
// replacement, so the rebuild's seeks and transfers are costed like
// any other traffic (health.Media).
func (s *System) Replacement(m int) (device.Driver, error) { return s.Drivers[m], nil }

// Adopt has nothing to move: a simulated spare's drive is already the
// member's once the array has promoted it (health.Media).
func (s *System) Adopt(m, j int) error { return nil }

// Init formats and mounts the volumes, spreading them round-robin
// over the disks and splitting each disk evenly among its volumes; in
// array mode it mounts one array over a full-disk partition per stack
// as volume 1. It must run inside a kernel task.
func (s *System) Init(t sched.Task) error {
	cfg := s.Cfg
	var members []*layout.Partition
	for i := range cfg.ArrayVolumes {
		members = append(members, s.partition(i, 0, s.Drivers[i].CapacityBlocks()))
	}
	// Disk by disk: the order the simulated formats are costed in.
	s.Volumes = make([]*volume.Array, cfg.Volumes)
	nd := len(s.Disks)
	for d := range nd {
		for v := d; v < cfg.Volumes; v += nd {
			parts := members
			if parts == nil {
				share := s.Drivers[d].CapacityBlocks() / int64((cfg.Volumes-d+nd-1)/nd)
				parts = []*layout.Partition{s.partition(d, int64(v/nd)*share, share)}
			}
			arr, err := s.stackConfig().Array(s.K, fmt.Sprintf("vol%d", v+1), parts)
			if err == nil {
				err = arr.Format(t)
			}
			if err != nil {
				return fmt.Errorf("patsy: vol%d: %w", v+1, err)
			}
			s.Volumes[v] = arr
		}
	}
	if _, err := stack.Mount(t, s.FS, false, nil, s.Volumes...); err != nil {
		return fmt.Errorf("patsy: %w", err)
	}
	if members != nil {
		s.Members = &health.Members{
			K: s.K, Array: s.Volumes[0], Stack: s.stackConfig(), Name: "vol1", Blocks: members[0].Blocks,
			Fault: s.Fault, Media: s, Drivers: append([]device.Driver(nil), s.Drivers...),
		}
	}
	return nil
}

// partition is blocks blocks of disk d from start, capped at
// MaxVolBlocks.
func (s *System) partition(d int, start, blocks int64) *layout.Partition {
	if s.Cfg.MaxVolBlocks > 0 && blocks > s.Cfg.MaxVolBlocks {
		blocks = s.Cfg.MaxVolBlocks
	}
	return s.stackConfig().Partition(s.Drivers[d], d, start, blocks)
}

// stackConfig is the simulator's half of the one assembly: simulated
// members, arrays and front-end.
func (s *System) stackConfig() stack.Config {
	return stack.Config{
		Simulated:    true,
		Layout:       s.Cfg.Layout,
		SegBlocks:    s.Cfg.SegBlocks,
		Cleaner:      s.Cfg.Cleaner,
		ClusterRun:   s.Cfg.ClusterRunBlocks,
		Placement:    s.Cfg.Placement,
		StripeBlocks: s.Cfg.StripeBlocks,
	}
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
		if runErr = sys.Init(t); runErr != nil {
			sys.K.Stop()
			return
		}
		if cfg.CrashAt > 0 {
			sys.K.Go("patsy.crash", func(ct sched.Task) {
				crash, _, runErr = sys.crashTask(ct, rep)
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
