// Package bench is the closed-loop serving workload the simulator
// studies share. One loop — a kernel task that prefills the working
// set, starts the cell's member-loss arc and runs N client tasks over
// the file system front-end — runs on both instantiations of the
// component library: Patsy under the virtual kernel (RunSim) and the
// pfs server under the real-time kernel (RunReal). Only the target
// differs: its kernel and whether transfers carry payload. Member
// loss — kill, rebuild, hot spare and self-heal supervisor — is the
// same health.Members on both. Each run reports throughput, latency
// quantiles and cache/volume counters as JSON.
//
// The virtual-kernel numbers are deterministic per seed and
// machine-independent (ops per simulated second), which is why the
// serving, degraded and self-heal studies' cells are committed byte
// for byte (bench_baseline.json, BENCH_8.json, BENCH_10.json); the
// real-kernel numbers measure this machine.
package bench

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/stats"
)

// Config parameterizes one benchmark cell.
type Config struct {
	// Clients is the number of concurrent closed-loop clients, one
	// kernel task each on either kernel.
	Clients int
	// Ops is the number of operations per client.
	Ops int
	// Files and FileBlocks size the working set.
	Files      int
	FileBlocks int
	// IOBytes is the transfer size per operation.
	IOBytes int
	// ReadFrac is the fraction of operations that stream reads
	// (the rest are random block-aligned writes).
	ReadFrac float64
	// Seed drives the per-client operation streams.
	Seed int64
	// Think is per-op client think time, slept on the kernel clock.
	// Zero is the pure closed-loop hammer; a few milliseconds models
	// interactive clients and gives readahead idle disk time to work
	// ahead into.
	Think time.Duration

	CacheBlocks int
	// Readahead is the simulator's sequential readahead window (0 or
	// negative = off, its default); the real server runs its own.
	Readahead int

	// Redundant-array axes. Placement, when set to "mirrored" or
	// "parity", runs the cell over a Width-member redundant array
	// (default width 3); empty keeps the classic single-stack cell.
	// Degrade kills DegradeMember after the prefill, so the
	// measurement runs against the degraded read/write paths; Rebuild
	// (implies Degrade) additionally runs the online rebuild
	// concurrently with the measurement — the "rebuilding" cell.
	Placement     string
	Width         int
	StripeBlocks  int
	Degrade       bool
	DegradeMember int
	Rebuild       bool
	// SelfHeal (redundant placements only; "mirrored" when none is
	// set) runs the cell through a supervised repair on either kernel:
	// the array gets one hot spare and the health supervisor,
	// DegradeMember is killed at the fault seam by the client op that
	// completes the first quarter of the cell's ops, and the clients
	// serve through detection, spare promotion, online rebuild and
	// scrub-verify; the cell then syncs and waits for the repair to
	// close. The array retries a dead member's I/O from redundancy,
	// so every op must succeed; a failed one fails the cell. The
	// result records the supervisor's detection latency and MTTR
	// alongside the serving numbers.
	SelfHeal bool
}

// Quick is the serving study's pinned cell: a working set twice the
// cache (8 MB over a 4 MB cache) so streaming reads actually miss.
func Quick(clients int) Config {
	return Config{
		Clients:     clients,
		Ops:         300,
		Files:       8,
		FileBlocks:  256,
		IOBytes:     16 << 10,
		ReadFrac:    0.8,
		Seed:        1996,
		CacheBlocks: 1024,
	}
}

// CacheCounters is the cache's contribution to a result.
type CacheCounters struct {
	Lookups        int64   `json:"lookups"`
	Hits           int64   `json:"hits"`
	HitRate        float64 `json:"hit_rate"`
	Evictions      int64   `json:"evictions"`
	FlushedBlocks  int64   `json:"flushed_blocks"`
	ReadaheadFills int64   `json:"readahead_fills"`
}

// VolumeCounters is the disk stacks' contribution to a result:
// block traffic plus the requests that carried it, so the clustering
// win shows up as a transfer-size ratio, not just wall clock.
type VolumeCounters struct {
	BlocksRead    int64 `json:"blocks_read"`
	BlocksWritten int64 `json:"blocks_written"`
	ReadReqs      int64 `json:"read_reqs"`
	WriteReqs     int64 `json:"write_reqs"`
	// BlocksPerReq is the mean transfer size the disks saw.
	BlocksPerReq float64 `json:"blocks_per_req"`
}

// Result is one benchmark cell's measurements.
type Result struct {
	Kernel    string  `json:"kernel"` // "real" or "virtual"
	Clients   int     `json:"clients"`
	Depth     int     `json:"depth"`
	Shards    int     `json:"shards"`
	Pipeline  int     `json:"pipeline"` // 0: the clients run in process, no wire
	Readahead int     `json:"readahead"`
	Cluster   int     `json:"cluster"` // effective run cap (1 = off)
	Ops       int64   `json:"ops"`
	WallMS    float64 `json:"wall_ms"`
	SimMS     float64 `json:"sim_ms,omitempty"`
	// OpsPerSec is ops over wall time on the real kernel and ops
	// over simulated time on the virtual kernel.
	OpsPerSec float64 `json:"ops_per_sec"`
	// MBPerSec is the payload volume the clients moved (ops times
	// transfer size) over the same denominator as OpsPerSec.
	MBPerSec float64 `json:"mb_per_sec,omitempty"`
	// StagedCopyBytes counts payload bytes the layouts memcpy'd into
	// staging buffers during the measurement phase. Virtual cells
	// report 0 (the sim carries no payload).
	StagedCopyBytes int64          `json:"staged_copy_bytes"`
	MeanMS          float64        `json:"mean_ms"`
	P50MS           float64        `json:"p50_ms"`
	P95MS           float64        `json:"p95_ms"`
	P99MS           float64        `json:"p99_ms"`
	Cache           CacheCounters  `json:"cache"`
	Volume          VolumeCounters `json:"volume"`
	// Redundant-array cell identity (empty/false on classic cells,
	// which keeps their JSON byte-identical).
	Placement string `json:"placement,omitempty"`
	Width     int    `json:"width,omitempty"`
	Degraded  bool   `json:"degraded,omitempty"`
	Rebuild   bool   `json:"rebuild,omitempty"`
	// RebuildMS is the online rebuild's duration in the rebuilding
	// cell (simulated ms on the virtual kernel).
	RebuildMS float64 `json:"rebuild_ms,omitempty"`
	// SelfHeal marks a supervised-repair cell; DetectMS is the time
	// from the kill to the monitor's confirmed verdict, MTTRMS the
	// time from the kill to the scrub-verified rebuilt array (both on
	// the kernel's clock: simulated ms on the virtual kernel).
	SelfHeal bool    `json:"self_heal,omitempty"`
	DetectMS float64 `json:"detect_ms,omitempty"`
	MTTRMS   float64 `json:"mttr_ms,omitempty"`
}

// File is the result-file format (bench_baseline.json).
type File struct {
	Bench int      `json:"bench"`
	Runs  []Result `json:"runs"`
}

// Encode renders the file as indented JSON with a trailing newline.
func (f *File) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// --- deterministic per-client operation streams ---

// op is one generated operation.
type op struct {
	read bool
	file int
	off  int64
	n    int
}

// opGen derives client ci's operation stream: sequential streaming
// reads over the client's home file, random block-aligned writes
// over the whole working set.
type opGen struct {
	rng  *rand.Rand
	cfg  *Config
	home int
	pos  int64
}

func newOpGen(cfg *Config, ci int) *opGen {
	return &opGen{
		rng:  rand.New(rand.NewSource(cfg.Seed + int64(ci)*1_000_003)),
		cfg:  cfg,
		home: ci % cfg.Files,
	}
}

func (g *opGen) next() op {
	size := int64(g.cfg.FileBlocks) * core.BlockSize
	n := g.cfg.IOBytes
	if int64(n) > size {
		n = int(size)
	}
	if g.rng.Float64() < g.cfg.ReadFrac {
		if g.pos+int64(n) > size {
			g.pos = 0 // wrap: restart the stream
		}
		o := op{read: true, file: g.home, off: g.pos, n: n}
		g.pos += int64(n)
		return o
	}
	blocks := int64(g.cfg.FileBlocks)
	maxStart := blocks - int64((n+core.BlockSize-1)/core.BlockSize)
	if maxStart < 0 {
		maxStart = 0
	}
	off := g.rng.Int63n(maxStart+1) * core.BlockSize
	return op{read: false, file: g.rng.Intn(g.cfg.Files), off: off, n: n}
}

// fill derives the defaults both targets apply.
func (c *Config) fill() {
	if c.Clients <= 0 {
		c.Clients = 1
	}
	if c.Ops <= 0 {
		c.Ops = 100
	}
	if c.Files <= 0 {
		c.Files = 4
	}
	if c.FileBlocks <= 0 {
		c.FileBlocks = 64
	}
	if c.IOBytes <= 0 {
		c.IOBytes = 16 << 10
	}
	if c.ReadFrac < 0 || c.ReadFrac > 1 {
		c.ReadFrac = 0.8
	}
	if c.CacheBlocks <= 0 {
		c.CacheBlocks = 1024
	}
	if c.SelfHeal {
		// The supervised-repair cell owns the whole kill→rebuild arc:
		// the pre-kill and manual-rebuild knobs would double up.
		if c.Placement == "" {
			c.Placement = "mirrored"
		}
		c.Degrade = false
		c.Rebuild = false
	}
	if c.Placement != "" && c.Width <= 0 {
		c.Width = 3
	}
	if c.Rebuild {
		c.Degrade = true
	}
}

// fileName names working-set file i.
func fileName(i int) string { return fmt.Sprintf("bench%03d", i) }

// quantilesMS extracts the latency summary in milliseconds.
func quantilesMS(d *stats.LatencyDist) (mean, p50, p95, p99 float64) {
	ms := func(v time.Duration) float64 { return float64(v) / float64(time.Millisecond) }
	return ms(d.Mean()), ms(d.Quantile(0.50)), ms(d.Quantile(0.95)), ms(d.Quantile(0.99))
}

// cacheCounters is the cache's traffic since base (the zero value:
// since the cache was built), so the reported counters exclude
// working-set setup.
func cacheCounters(cs *cache.Stats, base CacheCounters) CacheCounters {
	c := CacheCounters{
		Lookups:        cs.Lookups.Value() - base.Lookups,
		Hits:           cs.Hits.Value() - base.Hits,
		Evictions:      cs.Evictions.Value() - base.Evictions,
		FlushedBlocks:  cs.FlushedBlocks.Value() - base.FlushedBlocks,
		ReadaheadFills: cs.ReadaheadFills.Value() - base.ReadaheadFills,
	}
	if c.Lookups > 0 {
		c.HitRate = float64(c.Hits) / float64(c.Lookups)
	}
	return c
}

// volumeCounters sums the disk stacks' I/O counters since base, with
// the mean transfer size over that span.
func volumeCounters(drvs []device.Driver, base VolumeCounters) VolumeCounters {
	v := VolumeCounters{
		BlocksRead:    -base.BlocksRead,
		BlocksWritten: -base.BlocksWritten,
		ReadReqs:      -base.ReadReqs,
		WriteReqs:     -base.WriteReqs,
	}
	for _, drv := range drvs {
		ds := drv.DriverStats()
		v.BlocksRead += ds.BlocksRead.Value()
		v.BlocksWritten += ds.BlocksWritten.Value()
		v.ReadReqs += ds.Reads.Value()
		v.WriteReqs += ds.Writes.Value()
	}
	if reqs := v.ReadReqs + v.WriteReqs; reqs > 0 {
		v.BlocksPerReq = float64(v.BlocksRead+v.BlocksWritten) / float64(reqs)
	}
	return v
}
