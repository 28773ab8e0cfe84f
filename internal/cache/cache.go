package cache

import (
	"fmt"
	"sort"
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

// HitRate returns hits/lookups.
func (s *Stats) HitRate() float64 {
	if s.Lookups.Value() == 0 {
		return 0
	}
	return float64(s.Hits.Value()) / float64(s.Lookups.Value())
}

// Register adds the sources to set.
func (s *Stats) Register(set *stats.Set) {
	set.Add(s.Lookups)
	set.Add(s.Hits)
	set.Add(s.Evictions)
	set.Add(s.FlushedBlocks)
	set.Add(s.FlushJobs)
	set.Add(s.SavedWrites)
	set.Add(s.PressureWaits)
	set.Add(s.NVRAMWaits)
	set.Add(s.DirtyHW)
	set.Add(s.ReadaheadFills)
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

	filled  sched.Cond // Busy blocks became Valid (or failed)
	cleaned sched.Cond // flusher finished some blocks

	index       map[core.BlockKey]*Block
	free        blockList
	dirty       blockList // clean→dirty transition order: oldest first
	dirtyByFile map[FileKey]map[core.BlockNo]*Block
	replace     ReplacePolicy
	dirtyCount  int
	flushing    int
	fills       int // frames claimed by TryStartFill, not yet FinishFill'd
	// dirtyGauge shadows dirtyCount for telemetry: the real count
	// lives under the kernel mutex, which a scrape (a plain HTTP
	// goroutine with no kernel task) can never take.
	dirtyGauge atomic.Int64
	maxDirty   int // this shard's share of Flush.MaxDirtyBlocks (0 = unlimited)

	flushQ    [][]*Block
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
			c:           c,
			mu:          k.NewMutex(name),
			index:       make(map[core.BlockKey]*Block),
			dirtyByFile: make(map[FileKey]map[core.BlockNo]*Block),
			replace:     rp,
			flushWork:   k.NewEvent(name + ".flushwork"),
			scanName:    name + ".updated",
		}
		sh.filled = k.NewCond(name + ".filled")
		sh.cleaned = k.NewCond(name + ".cleaned")
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
			sh.free.pushTail(b)
		}
		c.shards = append(c.shards, sh)
	}
	return c
}

// Start spawns each shard's flusher task and, when the policy asks
// for one, its update daemon.
func (c *Cache) Start() {
	nsh := len(c.shards)
	for i, sh := range c.shards {
		sh := sh
		c.k.Go(sched.ShardName("cache", i, nsh)+".flusher", sh.flusherLoop)
		if c.cfg.Flush.ScanInterval > 0 {
			c.k.Go(sh.scanName, sh.updateDaemon)
		}
	}
}

// CacheStats returns the statistics plug-in.
func (c *Cache) CacheStats() *Stats { return c.st }

// Policy returns the flush configuration (for reports).
func (c *Cache) Policy() FlushConfig { return c.cfg.Flush }

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

// GetBlock returns the pinned block for key. hit reports whether the
// block already held valid contents; on a miss the caller must fill
// the block (read it from the layout, or zero it for a fresh block)
// and then call Filled — or FillFailed to abandon it. Concurrent
// requests for a missing block wait for the first filler.
func (c *Cache) GetBlock(t sched.Task, key core.BlockKey) (b *Block, hit bool) {
	sh := c.shardOf(key)
	sh.mu.Lock(t)
	defer sh.mu.Unlock(t)
	c.st.Lookups.Inc()
	for {
		b = sh.index[key]
		if b == nil {
			nb := sh.allocLocked(t)
			nb.Key = key
			nb.Busy = true
			nb.Valid = false
			nb.Dirty = false
			nb.NoCache = false
			nb.Size = 0
			nb.Freq = 1
			nb.History = append(nb.History[:0], c.k.Now())
			nb.LastUsed = c.k.Now()
			nb.Pins = 1
			sh.index[key] = nb
			return nb, false
		}
		if b.Busy {
			sh.filled.Wait(t, sh.mu)
			continue // may have failed and vanished; recheck
		}
		sh.pinLocked(b)
		b.Freq++
		b.LastUsed = c.k.Now()
		b.History = append(b.History, c.k.Now())
		b.touched = true
		c.st.Hits.Inc()
		return b, true
	}
}

// TryStartFill is the readahead entry point: when key is absent and
// a frame can be had without flushing dirty data or blocking, it
// claims a Busy, pinned frame the caller must complete with
// FinishFill. It refuses (nil, false) when the block is already
// present or being filled, or when only dirty, busy or pinned
// frames remain — readahead never pushes dirty blocks out of memory
// (the NVRAM residency guarantee) and never stalls behind the
// flusher the way a demand miss may.
func (c *Cache) TryStartFill(t sched.Task, key core.BlockKey) (*Block, bool) {
	sh := c.shardOf(key)
	sh.mu.Lock(t)
	defer sh.mu.Unlock(t)
	if sh.index[key] != nil {
		return nil, false
	}
	b := sh.free.popHead()
	if b == nil {
		if v := sh.replace.Victim(); v != nil {
			delete(sh.index, v.Key)
			v.Valid = false
			c.st.Evictions.Inc()
			b = v
		}
	}
	if b == nil {
		return nil, false // only dirty/pinned/busy frames left
	}
	b.Key = key
	b.Busy = true
	b.Valid = false
	b.Dirty = false
	b.NoCache = false
	b.Size = 0
	b.Freq = 1
	b.History = append(b.History[:0], c.k.Now())
	b.LastUsed = c.k.Now()
	b.Pins = 1
	sh.index[key] = b
	sh.fills++
	c.st.ReadaheadFills.Inc()
	return b, true
}

// FinishFill completes a TryStartFill: on success the block becomes
// a valid, unpinned cache resident; on error the frame returns to
// the free list and demand waiters retry. Both outcomes wake filled
// and cleaned waiters, so a truncate or delete racing a readahead
// re-scans instead of waiting forever.
func (c *Cache) FinishFill(t sched.Task, b *Block, size int, err error) {
	sh := c.shardOf(b.Key)
	sh.mu.Lock(t)
	defer sh.mu.Unlock(t)
	if !b.Busy {
		panic("cache: FinishFill on non-busy block " + b.Key.String())
	}
	b.Busy = false
	sh.fills--
	b.Pins--
	if err != nil {
		delete(sh.index, b.Key)
		b.Valid = false
		b.Pins = 0
		sh.free.pushTail(b)
	} else {
		b.Valid = true
		b.Size = size
		if b.Pins == 0 {
			sh.replace.Add(b)
		}
	}
	sh.filled.Broadcast()
	sh.cleaned.Broadcast()
}

// pinLocked pins b, withdrawing it from the replacement candidates.
func (sh *shard) pinLocked(b *Block) {
	if b.Pins == 0 && b.Valid && !b.Dirty && !b.Flushing && !b.Busy {
		sh.replace.Remove(b)
	}
	b.Pins++
}

// Peek reports whether key is cached and valid, without pinning.
func (c *Cache) Peek(t sched.Task, key core.BlockKey) bool {
	sh := c.shardOf(key)
	sh.mu.Lock(t)
	defer sh.mu.Unlock(t)
	b := sh.index[key]
	return b != nil && b.Valid && !b.Busy
}

// Filled marks a miss block as valid with size valid bytes. The
// block stays pinned; Release it when done.
func (c *Cache) Filled(t sched.Task, b *Block, size int) {
	sh := c.shardOf(b.Key)
	sh.mu.Lock(t)
	defer sh.mu.Unlock(t)
	if !b.Busy {
		panic("cache: Filled on non-busy block " + b.Key.String())
	}
	b.Busy = false
	b.Valid = true
	b.Size = size
	sh.filled.Broadcast()
}

// FillFailed abandons a miss block: it returns to the free list and
// waiters retry.
func (c *Cache) FillFailed(t sched.Task, b *Block) {
	sh := c.shardOf(b.Key)
	sh.mu.Lock(t)
	defer sh.mu.Unlock(t)
	if !b.Busy {
		panic("cache: FillFailed on non-busy block")
	}
	delete(sh.index, b.Key)
	b.Busy = false
	b.Valid = false
	b.Pins = 0
	sh.free.pushTail(b)
	sh.filled.Broadcast()
}

// Release unpins b; fully released clean blocks become replacement
// candidates (or go straight to the free list for NoCache blocks).
func (c *Cache) Release(t sched.Task, b *Block) {
	sh := c.shardOf(b.Key)
	sh.mu.Lock(t)
	defer sh.mu.Unlock(t)
	if b.Pins <= 0 {
		panic("cache: Release of unpinned block " + b.Key.String())
	}
	b.Pins--
	if b.Pins > 0 {
		return
	}
	if b.Dirty || b.Flushing || !b.Valid {
		return
	}
	if b.NoCache {
		delete(sh.index, b.Key)
		b.Valid = false
		sh.free.pushTail(b)
		sh.filled.Broadcast()
		return
	}
	sh.replace.Add(b)
	if b.touched {
		// A hit happened while the block was pinned; let the
		// policy see it now that the block is a candidate again
		// (this is what promotes SLRU blocks to protected).
		sh.replace.Touched(b)
		b.touched = false
	}
}

// BeginWrite prepares a pinned block for an in-place mutation of its
// Data: it waits out any in-flight flush of the block and marks it
// write-busy, so the flusher never copies a half-updated frame. End
// the mutation with MarkDirty. Callers that move no real bytes (the
// simulator) skip it — their blocks have nothing to tear.
func (c *Cache) BeginWrite(t sched.Task, b *Block) {
	sh := c.shardOf(b.Key)
	sh.mu.Lock(t)
	defer sh.mu.Unlock(t)
	if b.Pins <= 0 {
		panic("cache: BeginWrite on unpinned block " + b.Key.String())
	}
	for b.Flushing || b.Borrows > 0 {
		sh.cleaned.Wait(t, sh.mu)
	}
	b.Writing++
}

// Borrow loans a pinned block's Data to an in-flight zero-copy I/O —
// an NFS read reply that writev's the frame straight to the socket.
// The loan waits out any in-place mutation (BeginWrite..MarkDirty) so
// it never captures a half-updated frame, then keeps writers out of
// BeginWrite until Unborrow. The caller must already hold a pin and
// keep holding it for the life of the loan; a stalled consumer (a
// slow client socket) therefore delays writers to this block, which
// is the price of lending the frame instead of copying it.
func (c *Cache) Borrow(t sched.Task, b *Block) {
	sh := c.shardOf(b.Key)
	sh.mu.Lock(t)
	defer sh.mu.Unlock(t)
	if b.Pins <= 0 {
		panic("cache: Borrow of unpinned block " + b.Key.String())
	}
	for b.Writing > 0 {
		sh.cleaned.Wait(t, sh.mu)
	}
	b.Borrows++
}

// Unborrow returns a Borrow loan; writers parked in BeginWrite wake.
func (c *Cache) Unborrow(t sched.Task, b *Block) {
	sh := c.shardOf(b.Key)
	sh.mu.Lock(t)
	defer sh.mu.Unlock(t)
	if b.Borrows <= 0 {
		panic("cache: Unborrow without Borrow " + b.Key.String())
	}
	b.Borrows--
	if b.Borrows == 0 {
		sh.cleaned.Broadcast()
	}
}

// MarkDirty moves a pinned block to the dirty set, honoring the
// policy's dirty-block bound: when the NVRAM buffer is full the
// caller waits here until the flusher drains it — the paper's
// "writes are waiting for the NVRAM to drain" bottleneck. It also
// ends a BeginWrite reservation: the new contents are published to
// the flusher.
func (c *Cache) MarkDirty(t sched.Task, b *Block) {
	sh := c.shardOf(b.Key)
	sh.mu.Lock(t)
	defer sh.mu.Unlock(t)
	if b.Pins <= 0 {
		panic("cache: MarkDirty on unpinned block")
	}
	if b.Writing > 0 {
		b.Writing--
		if b.Writing == 0 {
			// Flush pickers and the crash snapshot wait on cleaned for
			// write-busy blocks to settle. Broadcast NOW, not on
			// return: the dirty-bound loop below can park this task
			// indefinitely (forever, after a power cut), and the
			// crash snapshot must not wait behind it.
			sh.cleaned.Broadcast()
		}
	}
	for b.Flushing {
		// Data must stay stable while the flusher writes it.
		sh.cleaned.Wait(t, sh.mu)
	}
	if b.Dirty {
		return // overwrite in place: this is the write-saving win
	}
	for sh.maxDirty > 0 && sh.dirtyCount >= sh.maxDirty {
		c.st.NVRAMWaits.Inc()
		if !c.off.Load() {
			sh.flushOldestLocked()
		}
		sh.cleaned.Wait(t, sh.mu)
	}
	b.Dirty = true
	b.DirtySince = c.k.Now()
	sh.dirty.pushTail(b)
	fk := FileKey{b.Key.Vol, b.Key.File}
	m := sh.dirtyByFile[fk]
	if m == nil {
		m = make(map[core.BlockNo]*Block)
		sh.dirtyByFile[fk] = m
	}
	m[b.Key.Blk] = b
	sh.dirtyCount++
	sh.dirtyGauge.Add(1)
	c.addDirty(1)
}

// allocLocked produces a free frame: from the free list, by evicting
// a replacement victim, or — under pressure — by triggering a flush
// of the oldest dirty block and waiting for the flusher.
func (sh *shard) allocLocked(t sched.Task) *Block {
	for {
		if b := sh.free.popHead(); b != nil {
			return b
		}
		if v := sh.replace.Victim(); v != nil {
			delete(sh.index, v.Key)
			v.Valid = false
			sh.c.st.Evictions.Inc()
			return v
		}
		// No clean blocks: initiate a flush through the oldest
		// dirty block, as the base cache component does.
		sh.c.st.PressureWaits.Inc()
		if sh.dirtyCount == 0 && sh.flushing == 0 {
			if sh.fills == 0 {
				panic("cache: shard exhausted — every block pinned or busy; cache too small (or too many shards) for the working set")
			}
			// Nothing to flush, but readahead fills are in flight:
			// FinishFill hands their frames back and broadcasts cleaned.
			sh.cleaned.Wait(t, sh.mu)
			continue
		}
		if !sh.c.off.Load() {
			sh.flushOldestLocked()
		}
		sh.cleaned.Wait(t, sh.mu)
	}
}

// flushOldestLocked enqueues the oldest dirty, not-yet-flushing
// block (whole file or single block per policy). Write-busy blocks
// are skipped — their contents are mid-update.
func (sh *shard) flushOldestLocked() {
	for b := sh.dirty.head; b != nil; b = b.next {
		if !b.Flushing && b.Writing == 0 {
			sh.enqueueFlushLocked(b)
			return
		}
	}
}

// enqueueFlushLocked builds a flush job from b per the granularity
// policy and hands it to the flusher. Whole-file jobs are sorted by
// block number so log-structured layouts write them contiguously —
// and so simulation runs stay deterministic despite map iteration.
// With multiple shards, "whole file" means the file's dirty blocks
// living in this shard; sibling stripes flush from their own shards.
func (sh *shard) enqueueFlushLocked(b *Block) {
	var job []*Block
	if sh.c.cfg.Flush.WholeFile {
		for _, fb := range sh.dirtyByFile[FileKey{b.Key.Vol, b.Key.File}] {
			if !fb.Flushing && fb.Writing == 0 {
				fb.Flushing = true
				sh.flushing++
				job = append(job, fb)
			}
		}
		sort.Slice(job, func(i, j int) bool { return job[i].Key.Blk < job[j].Key.Blk })
	} else {
		if b.Writing > 0 {
			return
		}
		b.Flushing = true
		sh.flushing++
		job = []*Block{b}
	}
	if len(job) == 0 {
		return
	}
	sh.flushQ = append(sh.flushQ, job)
	sh.c.st.FlushJobs.Inc()
	sh.flushWork.Signal()
}

// flusherLoop is a shard's asynchronous flusher task.
func (sh *shard) flusherLoop(t sched.Task) {
	for {
		sh.flushWork.Wait(t)
		sh.mu.Lock(t)
		if len(sh.flushQ) == 0 {
			sh.mu.Unlock(t)
			continue
		}
		job := sh.flushQ[0]
		sh.flushQ = sh.flushQ[1:]
		sh.mu.Unlock(t)

		err := sh.c.store.FlushBlocks(t, job)

		sh.mu.Lock(t)
		for _, b := range job {
			b.Flushing = false
			sh.flushing--
			if err != nil {
				continue // stays dirty; retried on next trigger
			}
			b.Dirty = false
			sh.dirty.remove(b)
			sh.removeDirtyIndexLocked(b)
			sh.dirtyCount--
			sh.dirtyGauge.Add(-1)
			sh.c.addDirty(-1)
			sh.c.st.FlushedBlocks.Inc()
			if b.Pins == 0 && b.Valid {
				if b.NoCache {
					delete(sh.index, b.Key)
					b.Valid = false
					sh.free.pushTail(b)
				} else {
					sh.replace.Add(b)
				}
			}
		}
		sh.cleaned.Broadcast()
		sh.mu.Unlock(t)
	}
}

func (sh *shard) removeDirtyIndexLocked(b *Block) {
	fk := FileKey{b.Key.Vol, b.Key.File}
	if m := sh.dirtyByFile[fk]; m != nil {
		delete(m, b.Key.Blk)
		if len(m) == 0 {
			delete(sh.dirtyByFile, fk)
		}
	}
}

// updateDaemon is the SVR4-style scanner: every ScanInterval it
// flushes files whose oldest dirty block has aged past MaxAge.
func (sh *shard) updateDaemon(t sched.Task) {
	for {
		t.Sleep(sh.c.cfg.Flush.ScanInterval)
		if sh.c.off.Load() {
			continue
		}
		sh.mu.Lock(t)
		now := sh.c.k.Now()
		for b := sh.dirty.head; b != nil; b = b.next {
			if now.Sub(b.DirtySince) < sh.c.cfg.Flush.MaxAge {
				break // list is ordered by DirtySince
			}
			if !b.Flushing && b.Writing == 0 {
				sh.enqueueFlushLocked(b)
			}
		}
		sh.mu.Unlock(t)
	}
}

// FlushFile synchronously writes every dirty block of (vol, file),
// shard by shard.
func (c *Cache) FlushFile(t sched.Task, vol core.VolumeID, file core.FileID) {
	if c.off.Load() {
		return
	}
	fk := FileKey{vol, file}
	for _, sh := range c.shards {
		sh.mu.Lock(t)
		for {
			m := sh.dirtyByFile[fk]
			if len(m) == 0 && !sh.fileFlushingLocked(fk) {
				break
			}
			// Enqueue the lowest not-yet-flushing block (deterministic
			// despite map iteration); whole-file policies grab the
			// rest of the file with it.
			var pick *Block
			for _, b := range m {
				if !b.Flushing && b.Writing == 0 && (pick == nil || b.Key.Blk < pick.Key.Blk) {
					pick = b
				}
			}
			if pick != nil {
				sh.enqueueFlushLocked(pick)
			}
			sh.cleaned.Wait(t, sh.mu)
		}
		sh.mu.Unlock(t)
	}
}

func (sh *shard) fileFlushingLocked(fk FileKey) bool {
	for b := sh.dirty.head; b != nil; b = b.next {
		if b.Flushing && b.Key.Vol == fk.Vol && b.Key.File == fk.File {
			return true
		}
	}
	return false
}

// FlushAll synchronously writes every dirty block (shutdown,
// checkpoint).
func (c *Cache) FlushAll(t sched.Task) {
	if c.off.Load() {
		return
	}
	for _, sh := range c.shards {
		sh.mu.Lock(t)
		for sh.dirtyCount > 0 || sh.flushing > 0 {
			sh.flushOldestLocked()
			sh.cleaned.Wait(t, sh.mu)
		}
		sh.mu.Unlock(t)
	}
}

// DiscardFile drops every cached block of (vol, file) numbered from
// fromBlk up. Dirty blocks are dropped without being written — the
// write-saving effect of truncates and deletes — and counted as
// saved writes. The caller must hold the file quiescent (no other
// task pinning its blocks); blocks mid-flush or mid-readahead are
// waited for. It returns the number of dirty blocks dropped.
func (c *Cache) DiscardFile(t sched.Task, vol core.VolumeID, file core.FileID, fromBlk core.BlockNo) int {
	saved := 0
	for _, sh := range c.shards {
		sh.mu.Lock(t)
		for {
			var victims []*Block
			waiting := false
			for key, b := range sh.index {
				if key.Vol != vol || key.File != file || key.Blk < fromBlk {
					continue
				}
				if b.Flushing || b.Busy || b.Pins > 0 {
					waiting = true
					continue
				}
				victims = append(victims, b)
			}
			// Deterministic processing order despite map iteration.
			sort.Slice(victims, func(i, j int) bool { return victims[i].Key.Blk < victims[j].Key.Blk })
			for _, b := range victims {
				if b.Dirty {
					b.Dirty = false
					sh.dirty.remove(b)
					sh.removeDirtyIndexLocked(b)
					sh.dirtyCount--
					sh.dirtyGauge.Add(-1)
					c.addDirty(-1)
					saved++
					c.st.SavedWrites.Inc()
				} else {
					sh.replace.Remove(b)
				}
				delete(sh.index, b.Key)
				b.Valid = false
				sh.free.pushTail(b)
			}
			if !waiting {
				break
			}
			sh.cleaned.Wait(t, sh.mu)
		}
		sh.cleaned.Broadcast()
		sh.mu.Unlock(t)
	}
	return saved
}

// Stats registers the cache statistics plug-in.
func (c *Cache) Stats(set *stats.Set) { c.st.Register(set) }

func (c *Cache) String() string {
	s := fmt.Sprintf("cache: %d blocks, replace=%s, flush=%s",
		c.cfg.Blocks, c.shards[0].replace.Name(), c.cfg.Flush.Name)
	if len(c.shards) > 1 {
		s += fmt.Sprintf(", shards=%d", len(c.shards))
	}
	return s
}
