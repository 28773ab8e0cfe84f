package cache

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/stats"
)

// BackingStore writes dirty blocks to stable storage. The storage
// layout (or the volume glue above it) implements this; the flusher
// task calls it with the cache lock released. A whole-file flush
// passes every dirty block of the file in one call so a
// log-structured layout can write them contiguously.
type BackingStore interface {
	FlushBlocks(t sched.Task, blocks []*Block) error
}

// FlushConfig selects the flush policy, the experiment variable of
// the paper: when dirty data leaves memory, and at what granularity.
type FlushConfig struct {
	Name string
	// ScanInterval > 0 runs an update daemon that wakes at this
	// period and flushes files whose oldest dirty block is older
	// than MaxAge (the Unix SVR4 30-second-update policy).
	ScanInterval time.Duration
	MaxAge       time.Duration
	// WholeFile selects whole-file flushing: flushing a block takes
	// every dirty block of its file along.
	WholeFile bool
	// MaxDirtyBlocks bounds how many blocks may be dirty at once; 0
	// is unlimited. The NVRAM experiments set it to the NVRAM size,
	// modeling "dirty data may only reside in NVRAM".
	MaxDirtyBlocks int
	// Persistent marks policies whose dirty data survives a power
	// cut: the UPS protects the whole memory, the NVRAM policies keep
	// every dirty block inside the NVRAM (MaxDirtyBlocks enforces the
	// residency). Cache.Crash returns those blocks for replay at
	// remount; with Persistent false they are lost with the power.
	Persistent bool
}

// WriteDelay is the baseline policy: dirty data is written after 30
// seconds by an update daemon that scans every few seconds, flushing
// whole files, as SVR4 does.
func WriteDelay() FlushConfig {
	return FlushConfig{Name: "writedelay", ScanInterval: 5 * time.Second,
		MaxAge: 30 * time.Second, WholeFile: true}
}

// UPS is the write-saving policy: with a UPS protecting the whole
// memory, dirty data stays in the cache until block allocation runs
// out of clean blocks; then the oldest dirty block is flushed (the
// paper's "naive" flush).
func UPS() FlushConfig {
	return FlushConfig{Name: "ups", Persistent: true}
}

// NVRAMWhole allows nvblocks dirty blocks (the NVRAM buffer) and
// flushes the whole file of the oldest dirty block when full.
func NVRAMWhole(nvblocks int) FlushConfig {
	return FlushConfig{Name: "nvram-whole", MaxDirtyBlocks: nvblocks, WholeFile: true,
		Persistent: true}
}

// NVRAMPartial allows nvblocks dirty blocks and flushes only the
// oldest dirty block when full.
func NVRAMPartial(nvblocks int) FlushConfig {
	return FlushConfig{Name: "nvram-partial", MaxDirtyBlocks: nvblocks, Persistent: true}
}

// FlushPolicy builds the named write policy — writedelay, ups,
// nvram-whole or nvram-partial — with nvramBlocks of NVRAM for the
// nvram policies.
func FlushPolicy(name string, nvramBlocks int) (FlushConfig, bool) {
	switch name {
	case "writedelay":
		return WriteDelay(), true
	case "ups":
		return UPS(), true
	case "nvram-whole":
		return NVRAMWhole(nvramBlocks), true
	case "nvram-partial":
		return NVRAMPartial(nvramBlocks), true
	}
	return FlushConfig{}, false
}

// Config sizes and configures a cache.
type Config struct {
	// Blocks is the cache capacity in blocks.
	Blocks int
	// Replace names the replacement policy (see NewReplacePolicy).
	Replace string
	// Flush is the flush policy.
	Flush FlushConfig
	// Simulated caches carry no data arena.
	Simulated bool
	// Shards lock-stripes the cache: frames, index, replacement
	// state and flusher are split into Shards independent units
	// keyed by block number, so concurrent clients on the real
	// kernel stop convoying on one mutex. 0 or 1 keeps the single
	// classic shard — the byte-identical simulator configuration.
	// Whole-file flush granularity becomes per-shard at widths
	// above 1, and the NVRAM dirty bound splits into whole
	// per-shard shares (the shard count clamps to MaxDirtyBlocks so
	// the global bound stays exact).
	Shards int
	// ShardChunk groups that many consecutive block numbers onto the
	// same shard (0 or 1 = the classic per-block striping). Clustered
	// instantiations set it to the layout's run-size cap so a file's
	// contiguous dirty run lives in one shard and reaches the layout
	// as one flush job — per-block striping would shred every run
	// across the shards and no multi-block write could ever form.
	ShardChunk int
	// IntentSlots, when positive, attaches a metadata intent log of
	// that many ring slots to the cache's persistence domain (see
	// intent.go). Zero leaves namespace operations unlogged — the
	// pre-intent-log behavior.
	IntentSlots int
}

// Stats is the cache statistics plug-in.
type Stats struct {
	Lookups        *stats.Counter
	Hits           *stats.Counter
	Evictions      *stats.Counter
	FlushedBlocks  *stats.Counter
	FlushJobs      *stats.Counter
	SavedWrites    *stats.Counter // dirty blocks discarded before any flush
	PressureWaits  *stats.Counter // allocations that had to wait for the flusher
	NVRAMWaits     *stats.Counter // writes that waited for NVRAM space
	DirtyHW        *stats.Counter // high-water mark of dirty blocks, cache-wide
	ReadaheadFills *stats.Counter // frames claimed by TryStartFill
}

// Cache is the file-system block cache: an array of lock-striped
// shards, each a self-contained classic cache (index, free list,
// dirty list, replacement policy, flusher task) over its own share
// of the frames. A block's shard is its block number modulo the
// shard count, so a streaming file spreads across every shard. With
// one shard the behavior is exactly the paper's single-lock cache.
type Cache struct {
	k       sched.Kernel
	cfg     Config
	store   BackingStore
	shards  []*shard
	arena   []byte
	st      *Stats
	intents *IntentLog // nil unless Config.IntentSlots > 0

	// dirtyMu orders the cross-shard dirty-block total (and its
	// high-water stat): shard mutexes cover only their own counts.
	dirtyMu    sync.Mutex
	dirtyTotal int

	// off marks a power-cut cache: the flush machinery stops issuing
	// I/O (it would only fail against the cut device stack) and
	// waiters park instead of re-triggering flushes. Set by PowerOff;
	// never set in normal operation.
	off atomic.Bool

	// closed tells the flushers and update daemons to exit (fossil's
	// die); each flusher signals exited as it goes. exited is nil
	// until Start.
	closed atomic.Bool
	exited sched.Event
}

// PowerOff freezes the cache at a simulated power cut: no further
// flush jobs are issued and blocked writers park quietly. Call it
// when the fault plan's cut trips (or from the crash path) — the
// dirty state stays exactly as the cut left it for Crash to capture.
func (c *Cache) PowerOff() { c.off.Store(true) }

// Intents returns the metadata intent log, or nil when the cache was
// built without one (Config.IntentSlots == 0).
func (c *Cache) Intents() *IntentLog { return c.intents }

// shard is one lock-striped unit of the cache.
type shard struct {
	c  *Cache
	mu sched.Mutex

	// conds are the frame state machine's conds (see the package
	// comment), indexed by wake bit: filled, cleaned, released.
	conds [nConds]sched.Cond

	index   map[core.BlockKey]*Block
	files   map[FileKey]*Block // the head of each file's chain of indexed frames
	free    blockList
	dirty   blockList // clean→dirty transition order: oldest first
	replace ReplacePolicy
	n       [nStates]int // frames per state
	writers int          // in-place writes in progress
	victims []*Block     // DiscardFile's scratch, used under mu
	// dirtyGauge shadows the dirty count for telemetry: the real count
	// lives under the kernel mutex, which a scrape (a plain HTTP
	// goroutine with no kernel task) can never take.
	dirtyGauge atomic.Int64
	maxDirty   int // this shard's share of Flush.MaxDirtyBlocks (0 = unlimited)

	// flushQ is the flusher's FIFO of jobs; a popped job's slice goes
	// back to jobFree once its flush lands. Both keep their backing
	// arrays, so a steady stream of flush jobs allocates nothing.
	flushQ    [][]*Block
	jobFree   [][]*Block
	flushWork sched.Event

	scanName string // update-daemon task name
}

// New builds a cache on kernel k backed by store. Call Start to
// spawn the flushers (and update daemons, if the policy has one).
func New(k sched.Kernel, cfg Config, store BackingStore) *Cache {
	if cfg.Blocks <= 0 {
		panic("cache: Config.Blocks must be positive")
	}
	nsh := cfg.Shards
	if nsh <= 0 {
		nsh = 1
	}
	if nsh > cfg.Blocks {
		nsh = cfg.Blocks
	}
	if limit := cfg.Flush.MaxDirtyBlocks; limit > 0 && nsh > limit {
		// Fewer stripes beats overcommitting the modeled NVRAM:
		// with nsh <= limit every shard gets a whole share and the
		// global dirty bound stays exact.
		nsh = limit
	}
	cfg.Shards = nsh
	c := &Cache{
		k:     k,
		cfg:   cfg,
		store: store,
		st: &Stats{
			Lookups:        stats.NewCounter("cache.lookups"),
			Hits:           stats.NewCounter("cache.hits"),
			Evictions:      stats.NewCounter("cache.evictions"),
			FlushedBlocks:  stats.NewCounter("cache.flushed_blocks"),
			FlushJobs:      stats.NewCounter("cache.flush_jobs"),
			SavedWrites:    stats.NewCounter("cache.saved_writes"),
			PressureWaits:  stats.NewCounter("cache.pressure_waits"),
			NVRAMWaits:     stats.NewCounter("cache.nvram_waits"),
			DirtyHW:        stats.NewCounter("cache.dirty_highwater"),
			ReadaheadFills: stats.NewCounter("cache.readahead_fills"),
		},
	}
	if cfg.IntentSlots > 0 {
		c.intents = NewIntentLog(cfg.IntentSlots)
	}
	if !cfg.Simulated {
		c.arena = make([]byte, cfg.Blocks*core.BlockSize)
	}
	frame := 0
	for i := 0; i < nsh; i++ {
		rp, ok := NewReplacePolicy(cfg.Replace, k.Rand())
		if !ok {
			panic(fmt.Sprintf("cache: unknown replacement policy %q", cfg.Replace))
		}
		blocks := cfg.Blocks / nsh
		if i < cfg.Blocks%nsh {
			blocks++
		}
		if s, isSLRU := rp.(*SLRU); isSLRU {
			s.SetProtectedLimit(blocks * 2 / 3)
		}
		name := sched.ShardName("cache", i, nsh)
		sh := &shard{
			c:         c,
			mu:        k.NewMutex(name),
			index:     make(map[core.BlockKey]*Block),
			files:     make(map[FileKey]*Block),
			replace:   rp,
			flushWork: k.NewEvent(name + ".flushwork"),
			scanName:  name + ".updated",
		}
		for j, cond := range [nConds]string{".filled", ".cleaned", ".released"} {
			sh.conds[j] = k.NewCond(name + cond)
		}
		if limit := cfg.Flush.MaxDirtyBlocks; limit > 0 {
			// nsh <= limit (clamped above), so every shard's share
			// is at least one and the shares sum to exactly limit.
			sh.maxDirty = limit / nsh
			if i < limit%nsh {
				sh.maxDirty++
			}
		}
		for j := 0; j < blocks; j++ {
			b := &Block{}
			if c.arena != nil {
				b.Data = c.arena[frame*core.BlockSize : (frame+1)*core.BlockSize]
			}
			frame++
			sh.place(b)
		}
		sh.n[stFree] = blocks
		c.shards = append(c.shards, sh)
	}
	return c
}

// Start spawns each shard's flusher task and, when the policy asks
// for one, its update daemon.
func (c *Cache) Start() {
	nsh := len(c.shards)
	c.exited = c.k.NewEvent("cache.exited")
	for i, sh := range c.shards {
		sh := sh
		c.k.Go(sched.ShardName("cache", i, nsh)+".flusher", sh.flusherLoop)
		if c.cfg.Flush.ScanInterval > 0 {
			c.k.Go(sh.scanName, sh.updateDaemon)
		}
	}
}

// Close stops the cache's tasks once nothing uses the cache any more:
// each flusher writes the jobs already queued, then exits, and Close
// waits for all of them; an update daemon exits at its next scan.
func (c *Cache) Close(t sched.Task) {
	if c.closed.Swap(true) || c.exited == nil {
		return
	}
	for _, sh := range c.shards {
		sh.flushWork.Signal()
	}
	for range c.shards {
		c.exited.Wait(t)
	}
}

// CacheStats returns the statistics plug-in.
func (c *Cache) CacheStats() *Stats { return c.st }

// Shards returns the lock-stripe width.
func (c *Cache) Shards() int { return len(c.shards) }

// Capacity returns the cache size in blocks.
func (c *Cache) Capacity() int { return c.cfg.Blocks }

// MaxDirtyBlocks returns the policy's dirty bound (the modeled NVRAM
// size), 0 when unlimited.
func (c *Cache) MaxDirtyBlocks() int { return c.cfg.Flush.MaxDirtyBlocks }

// Off reports whether the cache has been powered off.
func (c *Cache) Off() bool { return c.off.Load() }

// ShardDirty returns shard i's dirty-block count from the telemetry
// shadow gauge — safe from plain goroutines, eventually consistent
// with the kernel-mutex-guarded truth.
func (c *Cache) ShardDirty(i int) int64 { return c.shards[i].dirtyGauge.Load() }

// DirtyCount returns the number of dirty blocks across all shards.
func (c *Cache) DirtyCount() int {
	c.dirtyMu.Lock()
	defer c.dirtyMu.Unlock()
	return c.dirtyTotal
}

// addDirty tracks the global dirty-block total and its high-water
// stat across shards; the per-shard counts drive the NVRAM bound,
// this one keeps DirtyHW meaning what it always has (the most dirty
// blocks ever resident at once, cache-wide).
func (c *Cache) addDirty(d int) {
	c.dirtyMu.Lock()
	c.dirtyTotal += d
	if hw := int64(c.dirtyTotal); hw > c.st.DirtyHW.Value() {
		c.st.DirtyHW.Add(hw - c.st.DirtyHW.Value())
	}
	c.dirtyMu.Unlock()
}

// shardOf routes a key to its lock stripe. The classic map (chunk
// 0/1) stripes per block number. With a chunk it routes by
// chunk index mixed with the file id — a file's contiguous run
// stays on one shard, but different files' runs decorrelate
// (chunk-only routing would pile every file's first chunk onto
// shard 0 and convoy there).
func (c *Cache) shardOf(key core.BlockKey) *shard {
	b := uint64(key.Blk)
	if c.cfg.ShardChunk > 1 {
		x := b/uint64(c.cfg.ShardChunk) + uint64(key.File)*0x9E3779B97F4A7C15 + uint64(key.Vol)<<32
		x ^= x >> 30
		x *= 0xBF58476D1CE4E5B9
		x ^= x >> 27
		b = x
	}
	return c.shards[b%uint64(len(c.shards))]
}

// lock returns key's shard with its mutex held.
func (c *Cache) lock(t sched.Task, key core.BlockKey) *shard {
	sh := c.shardOf(key)
	sh.mu.Lock(t)
	return sh
}

// mode says how far acquire may go to get a frame.
type mode uint8

const (
	// park waits for whatever brings a frame back, flushing dirty
	// blocks under pressure.
	park mode = iota
	// holding is park for a caller that already holds frames: it
	// waits for fills and flushes but gives up rather than wait for
	// holds.
	holding
	// noWait never waits, never flushes and never evicts dirty data:
	// readahead's mode (the NVRAM residency rule).
	noWait
)

// acquire is the one path to a frame for key. It returns the resident
// block pinned (hit), or claims a frame in state filling — pinned
// unless m is noWait — for the caller to fill; nil when m forbids
// the wait that would be needed.
func (c *Cache) acquire(t sched.Task, key core.BlockKey, m mode) (b *Block, hit bool) {
	sh := c.lock(t, key)
	defer sh.mu.Unlock(t)
	for {
		if b = sh.index[key]; b != nil {
			if m == noWait {
				return nil, false
			}
			if b.state == stFilling {
				sh.await(t, wFilled)
				continue // may have failed and vanished; recheck
			}
			b.holds++
			sh.place(b) // a clean frame leaves the replacement set
			b.reference(c.k.Now())
			b.touched = true
			c.st.Hits.Inc()
			return b, true
		}
		// Claim the free list's head, else evict the replacement
		// policy's victim.
		if b = sh.free.head; b == nil {
			if b = sh.replace.Victim(); b != nil {
				b.where = nowhere // Victim took it out of the set
				sh.indexDel(b)
				c.st.Evictions.Inc()
			}
		}
		if b != nil {
			sh.set(b, stFilling)
			b.Key, b.NoCache, b.Size = key, false, 0
			b.Freq, b.nref, b.touched = 0, 0, false
			b.reference(c.k.Now())
			if m == noWait {
				c.st.ReadaheadFills.Inc()
			} else {
				b.holds = 1
			}
			sh.indexAdd(b)
			return b, false
		}
		// No frame to take: wait for whatever brings one back — a
		// flush (triggered here through the oldest dirty block, as the
		// base cache component does), a fill, or a release.
		var w wake
		switch {
		case m == noWait:
			return nil, false
		case sh.n[stDirty]+sh.n[stFlushing] > 0:
			w = wCleaned
		case sh.n[stFilling] > 0:
			w = wFilled
		case m == holding:
			return nil, false
		default:
			w = wReleased
		}
		c.st.PressureWaits.Inc()
		if w == wCleaned && !c.off.Load() {
			sh.flushOldestLocked()
		}
		sh.await(t, w)
	}
}

// GetBlock returns the pinned block for key. hit reports whether the
// block already held valid contents; on a miss the caller must fill
// the block (read it from the layout, or zero it for a fresh block)
// and then call Filled — or FillFailed to abandon it. Concurrent
// requests for a missing block wait for the first filler.
func (c *Cache) GetBlock(t sched.Task, key core.BlockKey) (b *Block, hit bool) {
	c.st.Lookups.Inc()
	return c.acquire(t, key, park)
}

// GetBlockHolding is GetBlock for a caller that already holds frames
// (a borrowed read collecting the blocks of one reply). It waits for
// fills and flushes, which finish without any frame, but never for
// another task's holds: when only held frames are left in the shard
// it returns nil, and the caller makes do with the frames it has.
func (c *Cache) GetBlockHolding(t sched.Task, key core.BlockKey) (b *Block, hit bool) {
	c.st.Lookups.Inc()
	return c.acquire(t, key, holding)
}

// TryStartFill is the readahead entry point: when key is absent and
// a frame can be had without flushing dirty data or blocking, it
// claims a frame for the fill alone — unpinned — which the caller
// completes with Filled or FillFailed; either hands it straight back
// to the cache. It refuses (nil, false) when the block is already
// present or being filled, or when only dirty, filling or pinned
// frames remain — readahead never pushes dirty blocks out of memory
// (the NVRAM residency guarantee) and never stalls behind the
// flusher the way a demand miss may.
func (c *Cache) TryStartFill(t sched.Task, key core.BlockKey) (*Block, bool) {
	b, _ := c.acquire(t, key, noWait)
	return b, b != nil
}

// Peek reports whether key is cached and valid, without pinning.
func (c *Cache) Peek(t sched.Task, key core.BlockKey) bool {
	sh := c.lock(t, key)
	defer sh.mu.Unlock(t)
	b := sh.index[key]
	return b != nil && b.state != stFilling
}

// Filled marks a fill complete with size valid bytes. A block from
// GetBlock stays pinned — Release it when done; one from TryStartFill
// becomes an unpinned cache resident.
func (c *Cache) Filled(t sched.Task, b *Block, size int) {
	sh := c.lock(t, b.Key)
	defer sh.mu.Unlock(t)
	b.Size = size
	sh.endFill(b, stClean)
}

// FillFailed abandons a fill: the frame, with the pin GetBlock gave
// it, returns to the free list and waiters retry.
func (c *Cache) FillFailed(t sched.Task, b *Block) {
	sh := c.lock(t, b.Key)
	defer sh.mu.Unlock(t)
	sh.endFill(b, stFree)
}

func (sh *shard) endFill(b *Block, to frameState) {
	if b.state != stFilling {
		panic(fmt.Sprintf("cache: fill of %v ended on a %v frame", b.Key, b.state))
	}
	var w wake
	if to == stFree && b.holds > 0 {
		w = sh.release(b)
	}
	sh.broadcast(w | sh.set(b, to))
}

// Release unpins b; fully released clean blocks become replacement
// candidates (or go straight to the free list for NoCache blocks).
func (c *Cache) Release(t sched.Task, b *Block) {
	sh := c.lock(t, b.Key)
	defer sh.mu.Unlock(t)
	sh.broadcast(sh.release(b))
}

// BeginWrite prepares a pinned block for an in-place mutation of its
// Data: it waits out any in-flight flush of the block and marks it
// write-busy, so the flusher never copies a half-updated frame. End
// the mutation with MarkDirty. Callers that move no real bytes (the
// simulator) skip it — their blocks have nothing to tear.
func (c *Cache) BeginWrite(t sched.Task, b *Block) { c.access(t, b, -1) }

// Borrow loans a pinned block's Data to an in-flight zero-copy I/O —
// an NFS read reply that writev's the frame straight to the socket.
// The loan waits out any in-place mutation (BeginWrite..MarkDirty) so
// it never captures a half-updated frame, then keeps writers out of
// BeginWrite until Unborrow. The caller must already hold a pin and
// keep holding it for the life of the loan; a stalled consumer (a
// slow client socket) therefore delays writers to this block, which
// is the price of lending the frame instead of copying it.
func (c *Cache) Borrow(t sched.Task, b *Block) { c.access(t, b, +1) }

// access starts a loan (d = +1) or an in-place write (d = -1) of
// pinned block b. Loans and writes exclude each other, and a write
// also waits out a flush of the block.
func (c *Cache) access(t sched.Task, b *Block, d int) {
	sh := c.lock(t, b.Key)
	defer sh.mu.Unlock(t)
	if b.holds <= 0 {
		panic("cache: loan or write of unpinned block " + b.Key.String())
	}
	for b.access*d < 0 || d < 0 && b.state == stFlushing {
		sh.await(t, wCleaned)
	}
	b.access += d
	if d < 0 {
		sh.writers++
	}
}

// Unborrow returns a Borrow loan; writers parked in BeginWrite wake.
func (c *Cache) Unborrow(t sched.Task, b *Block) {
	sh := c.lock(t, b.Key)
	defer sh.mu.Unlock(t)
	if b.access <= 0 {
		panic("cache: Unborrow without Borrow " + b.Key.String())
	}
	b.access--
	if b.access == 0 {
		sh.broadcast(wCleaned)
	}
}

// MarkDirty moves a pinned block to the dirty set, honoring the
// policy's dirty-block bound: when the NVRAM buffer is full the
// caller waits here until the flusher drains it — the paper's
// "writes are waiting for the NVRAM to drain" bottleneck. It also
// ends a BeginWrite reservation: the new contents are published to
// the flusher.
func (c *Cache) MarkDirty(t sched.Task, b *Block) {
	sh := c.lock(t, b.Key)
	defer sh.mu.Unlock(t)
	if b.holds <= 0 {
		panic("cache: MarkDirty on unpinned block")
	}
	if b.access < 0 {
		b.access++
		sh.writers--
		if b.access == 0 {
			// Flush pickers and the crash snapshot wait on cleaned for
			// write-busy blocks to settle. Broadcast NOW, not on
			// return: the dirty-bound loop below can park this task
			// indefinitely (forever, after a power cut), and the
			// crash snapshot must not wait behind it.
			sh.broadcast(wCleaned)
		}
	}
	for b.state == stFlushing {
		// Data must stay stable while the flusher writes it.
		sh.await(t, wCleaned)
	}
	if b.state == stDirty {
		return // overwrite in place: this is the write-saving win
	}
	for sh.maxDirty > 0 && sh.n[stDirty]+sh.n[stFlushing] >= sh.maxDirty {
		c.st.NVRAMWaits.Inc()
		if !c.off.Load() {
			sh.flushOldestLocked()
		}
		sh.await(t, wCleaned)
	}
	b.DirtySince = c.k.Now()
	sh.set(b, stDirty)
}

// flushOldestLocked enqueues the oldest flushable block (whole file
// or single block per policy). Write-busy blocks are skipped — their
// contents are mid-update.
func (sh *shard) flushOldestLocked() {
	for b := sh.dirty.head; b != nil; b = b.next {
		if b.flushable() {
			sh.enqueueFlushLocked(b)
			return
		}
	}
}

// enqueueFlushLocked builds a flush job from flushable block b per
// the granularity policy and hands it to the flusher. Whole-file jobs
// are sorted by block number so log-structured layouts write them
// contiguously. With multiple shards, "whole file" means the file's
// dirty blocks living in this shard; sibling stripes flush from their
// own shards.
func (sh *shard) enqueueFlushLocked(b *Block) {
	var job []*Block
	if n := len(sh.jobFree); n > 0 {
		job = sh.jobFree[n-1]
		sh.jobFree[n-1] = nil
		sh.jobFree = sh.jobFree[:n-1]
	}
	if sh.c.cfg.Flush.WholeFile {
		for fb := sh.files[fileOf(b.Key)]; fb != nil; fb = fb.fnext {
			if fb.flushable() {
				job = append(job, fb)
			}
		}
		slices.SortFunc(job, byBlock)
	} else {
		job = append(job, b)
	}
	for _, fb := range job {
		sh.set(fb, stFlushing)
	}
	sh.flushQ = append(sh.flushQ, job)
	sh.c.st.FlushJobs.Inc()
	sh.flushWork.Signal()
}

// keepJobs is how many finished job slices a shard keeps for reuse.
const keepJobs = 8

// flusherLoop is a shard's asynchronous flusher task. It exits once
// the cache is closed and its queue is empty.
func (sh *shard) flusherLoop(t sched.Task) {
	for {
		sh.flushWork.Wait(t)
		sh.mu.Lock(t)
		if len(sh.flushQ) == 0 {
			sh.mu.Unlock(t)
			if sh.c.closed.Load() {
				sh.c.exited.Signal()
				return
			}
			continue
		}
		job := sh.flushQ[0]
		n := copy(sh.flushQ, sh.flushQ[1:])
		sh.flushQ[n] = nil
		sh.flushQ = sh.flushQ[:n]
		sh.mu.Unlock(t)

		err := sh.c.store.FlushBlocks(t, job)

		sh.mu.Lock(t)
		var w wake
		for _, b := range job {
			if err != nil {
				w |= sh.set(b, stDirty) // retried on next trigger
				continue
			}
			w |= sh.set(b, stClean)
			sh.c.st.FlushedBlocks.Inc()
		}
		if len(sh.jobFree) < keepJobs {
			clear(job)
			sh.jobFree = append(sh.jobFree, job[:0])
		}
		sh.broadcast(w)
		sh.mu.Unlock(t)
	}
}

// updateDaemon is the SVR4-style scanner: every ScanInterval it
// flushes files whose oldest dirty block has aged past MaxAge.
func (sh *shard) updateDaemon(t sched.Task) {
	for {
		t.Sleep(sh.c.cfg.Flush.ScanInterval)
		if sh.c.closed.Load() {
			return
		}
		if sh.c.off.Load() {
			continue
		}
		sh.mu.Lock(t)
		now := sh.c.k.Now()
		for b := sh.dirty.head; b != nil; b = b.next {
			if now.Sub(b.DirtySince) < sh.c.cfg.Flush.MaxAge {
				break // list is ordered by DirtySince
			}
			if b.flushable() {
				sh.enqueueFlushLocked(b)
			}
		}
		sh.mu.Unlock(t)
	}
}

// FlushAll synchronously writes every dirty block (shutdown,
// checkpoint).
func (c *Cache) FlushAll(t sched.Task) {
	if c.off.Load() {
		return
	}
	for _, sh := range c.shards {
		sh.mu.Lock(t)
		for sh.n[stDirty]+sh.n[stFlushing] > 0 {
			sh.flushOldestLocked()
			sh.await(t, wCleaned)
		}
		sh.mu.Unlock(t)
	}
}

// DiscardFile drops every cached block of (vol, file) numbered from
// fromBlk up. Dirty blocks are dropped without being written — the
// write-saving effect of truncates and deletes — and counted as
// saved writes. Blocks mid-flush, mid-fill or held (a reply's loan)
// are waited for; the caller must keep new holds away (hold the
// file's lock). It returns the number of dirty blocks dropped.
func (c *Cache) DiscardFile(t sched.Task, vol core.VolumeID, file core.FileID, fromBlk core.BlockNo) int {
	saved, fk := 0, FileKey{vol, file}
	for _, sh := range c.shards {
		sh.mu.Lock(t)
		// The wake-up goes out once per shard when the discard is done,
		// even if it dropped nothing: flush waiters re-scan on it, and
		// the simulator's published figures depend on that schedule.
		w := wCleaned
		for {
			victims := sh.victims[:0]
			var busy wake
			for b := sh.files[fk]; b != nil; b = b.fnext {
				if b.Key.Blk < fromBlk {
					continue
				}
				if bw := b.busy(); bw != 0 {
					busy |= bw
					continue
				}
				victims = append(victims, b)
			}
			// Block order: the chain is in claim order.
			slices.SortFunc(victims, byBlock)
			for _, b := range victims {
				if b.state == stDirty {
					saved++
					c.st.SavedWrites.Inc()
				}
				w |= sh.set(b, stFree)
			}
			sh.victims = victims
			if busy == 0 {
				break
			}
			sh.await(t, busy)
		}
		sh.broadcast(w)
		sh.mu.Unlock(t)
	}
	return saved
}

// byBlock orders one file's frames by block number.
func byBlock(a, b *Block) int { return cmp.Compare(a.Key.Blk, b.Key.Blk) }

func (c *Cache) String() string {
	s := fmt.Sprintf("cache: %d blocks, replace=%s, flush=%s",
		c.cfg.Blocks, c.shards[0].replace.Name(), c.cfg.Flush.Name)
	if len(c.shards) > 1 {
		s += fmt.Sprintf(", shards=%d", len(c.shards))
	}
	return s
}
