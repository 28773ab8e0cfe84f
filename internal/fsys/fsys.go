// Package fsys implements the framework's abstract client interface
// and instantiated files: the file-system front-end with functions
// to open, close, read, write and delete files and to manipulate a
// hierarchical name space. When a file is first accessed its inode
// is loaded, an object of the matching file type is instantiated to
// manage it while in core, and a reference is kept in the global
// file table — exactly the component structure of the paper.
//
// The same package instantiates for PFS (real data through a real
// cache) and Patsy (no data; the mover charges copy time), because
// every data movement goes through core.DataMover and every byte of
// storage through the cache and the volume array.
package fsys

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/volume"
)

// FS is the abstract client interface over a set of mounted volumes
// sharing one block cache (the paper's server had 14 file systems
// behind a single cache).
type FS struct {
	k     sched.Kernel
	cache *cache.Cache
	mover core.DataMover
	vols  map[core.VolumeID]*Volume
	ra    int
	st    *Stats
	tr    *telemetry.Tracer // nil = untraced (the simulator)

	// replaying suppresses the intent log's pressure sync while
	// ReplayNVRAM re-records replayed operations.
	replaying bool
}

// SetReadahead turns on sequential-read readahead: once a file is
// read sequentially, the next n blocks are pulled through the cache
// by a background task so streaming reads overlap with the disk.
// Zero (the default) disables it — the simulator's byte-identical
// configuration. Readahead fills are best-effort: they only take
// free or clean frames (never flushing dirty data, see
// cache.TryStartFill) and are fenced against truncate and delete.
func (fs *FS) SetReadahead(n int) {
	if n < 0 {
		n = 0
	}
	fs.ra = n
}

// Readahead returns the readahead window in blocks (0 = off).
func (fs *FS) Readahead() int { return fs.ra }

// SetTracer attaches the per-op tracer: read and write paths charge
// their cache and disk time to the op bound to the calling task. A
// nil tracer (the default) keeps every path hook a no-op.
func (fs *FS) SetTracer(tr *telemetry.Tracer) { fs.tr = tr }

// Stats is the front-end statistics plug-in.
type Stats struct {
	Opens, Closes    *stats.Counter
	Reads, Writes    *stats.Counter
	BytesRead        *stats.Counter
	BytesWritten     *stats.Counter
	Creates, Removes *stats.Counter
	ReadLookups      *stats.Counter
	ReadHits         *stats.Counter
	Readaheads       *stats.Counter // readahead batches issued
	RAStreams        *stats.Counter // detector verdicts: a stream formed
	RARandoms        *stats.Counter // detector verdicts: a tracked sequence broke
	IntentSyncs      *stats.Counter // syncs forced by intent-ring pressure
}

// ReadHitRate returns the fraction of read block lookups served from
// the cache — the paper's read-cache-hit-rate metric.
func (s *Stats) ReadHitRate() float64 {
	if s.ReadLookups.Value() == 0 {
		return 0
	}
	return float64(s.ReadHits.Value()) / float64(s.ReadLookups.Value())
}

// New creates a file-system front-end. mover separates PFS from
// Patsy: pass core.RealMover{} or a core.SimMover.
func New(k sched.Kernel, c *cache.Cache, mover core.DataMover) *FS {
	return &FS{
		k:     k,
		cache: c,
		mover: mover,
		vols:  make(map[core.VolumeID]*Volume),
		st: &Stats{
			Opens:        stats.NewCounter("fs.opens"),
			Closes:       stats.NewCounter("fs.closes"),
			Reads:        stats.NewCounter("fs.reads"),
			Writes:       stats.NewCounter("fs.writes"),
			BytesRead:    stats.NewCounter("fs.bytes_read"),
			BytesWritten: stats.NewCounter("fs.bytes_written"),
			Creates:      stats.NewCounter("fs.creates"),
			Removes:      stats.NewCounter("fs.removes"),
			ReadLookups:  stats.NewCounter("fs.read_lookups"),
			ReadHits:     stats.NewCounter("fs.read_hits"),
			Readaheads:   stats.NewCounter("fs.readaheads"),
			RAStreams:    stats.NewCounter("fs.ra_stream_verdicts"),
			RARandoms:    stats.NewCounter("fs.ra_random_verdicts"),
			IntentSyncs:  stats.NewCounter("fs.intent_forced_syncs"),
		},
	}
}

// Kernel returns the kernel the front-end runs on.
func (fs *FS) Kernel() sched.Kernel { return fs.k }

// Cache returns the shared block cache.
func (fs *FS) Cache() *cache.Cache { return fs.cache }

// FSStats returns the front-end statistics plug-in.
func (fs *FS) FSStats() *Stats { return fs.st }

// Volume is one mounted file system.
type Volume struct {
	ID  core.VolumeID
	fs  *FS
	arr *volume.Array
	mu  sched.Mutex // namespace lock

	files map[core.FileID]*File // global file table
	root  *File
	sim   bool // the array's partitions move no data
}

// AddVolume mounts a formatted, mounted array as volume id and
// creates the root directory if the volume is empty.
func (fs *FS) AddVolume(t sched.Task, id core.VolumeID, arr *volume.Array) (*Volume, error) {
	if _, dup := fs.vols[id]; dup {
		return nil, fmt.Errorf("fsys: volume %d already mounted", id)
	}
	v := &Volume{
		ID:    id,
		fs:    fs,
		arr:   arr,
		mu:    fs.k.NewMutex(fmt.Sprintf("vol%d.ns", id)),
		files: make(map[core.FileID]*File),
		sim:   arr.Simulated(),
	}
	rootIno, err := arr.GetInode(t, core.RootFile)
	if err == core.ErrNotFound {
		rootIno, err = arr.AllocInode(t, core.TypeDirectory)
		if err == nil && rootIno.ID != core.RootFile {
			err = fmt.Errorf("fsys: root allocated as inode %d, want %d", rootIno.ID, core.RootFile)
		}
		if err == nil {
			rootIno.Nlink = 2
			err = arr.UpdateInode(t, rootIno)
		}
	}
	if err != nil {
		return nil, err
	}
	v.root = v.instantiate(rootIno)
	if err := v.loadDirectory(t, v.root); err != nil {
		return nil, err
	}
	v.files[rootIno.ID] = v.root
	fs.vols[id] = v
	return v, nil
}

// Vol returns the mounted volume or nil.
func (fs *FS) Vol(id core.VolumeID) *Volume { return fs.vols[id] }

// FreeBlocks reports the volume's remaining capacity in blocks.
func (v *Volume) FreeBlocks() int64 { return v.arr.FreeBlocks() }

// LayoutName reports the storage layout in use ("lfs", "ffs").
func (v *Volume) LayoutName() string { return v.arr.Name() }

// Root returns the root directory's inode number.
func (v *Volume) Root() core.FileID { return v.root.ino.ID }

// SyncAll flushes the cache and checkpoints every volume. With an
// intent log attached this is also the retirement barrier: the log
// sequence is snapshotted before the flush, and a volume's intents up
// to that snapshot retire once its checkpoint is durable — every
// operation they cover is older than the flush, so its directory
// blocks and inode records just became stable. Retirement is gated on
// the flush actually emptying the cache (a failed flush leaves its
// blocks dirty; retiring then would unprotect them) and on the
// layout's durability watermark not regressing across the checkpoint.
func (fs *FS) SyncAll(t sched.Task) error {
	log := fs.cache.Intents()
	var hi uint64
	if log != nil {
		hi = log.Seq()
	}
	// A simulated volume's directories become durable with the
	// checkpoint too, as of the same instant (see simDirs).
	dirs := make(map[core.VolumeID][]dirImage, len(fs.vols))
	for id, v := range fs.vols {
		dirs[id] = v.simDirs()
	}
	fs.cache.FlushAll(t)
	ids := make([]core.VolumeID, 0, len(fs.vols))
	for id := range fs.vols {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	clean := fs.cache.DirtyCount() == 0
	for _, id := range ids {
		v := fs.vols[id]
		wm0 := v.arr.DurableSeq(t)
		if err := v.arr.Sync(t); err != nil {
			return err
		}
		if !clean {
			continue
		}
		for _, d := range dirs[id] {
			v.arr.KeepSimDir(d.id, d.gen, d.ents)
		}
		if log == nil {
			continue
		}
		if v.arr.DurableSeq(t) < wm0 {
			continue // watermark regressed: do not trust this checkpoint
		}
		log.RetireVol(id, hi)
	}
	return nil
}

// Store is the cache backing store that routes flushed blocks to the
// owning volume's array. stack.Config.FrontEnd wires it: the store
// under cache.New, the cache under fsys.New, then Bind.
type Store struct {
	fs      *FS
	durable bool
	// writes is a spare write list for FlushBlocks: a member keeps no
	// reference to it once WriteBlocks returns. One slot, so it dies
	// with the store; a job that finds it taken makes its own.
	writes atomic.Pointer[[]layout.BlockWrite]
}

// NewStore returns an unbound store.
func NewStore() *Store { return &Store{} }

// Bind attaches the front-end (breaks the construction cycle between
// cache and FS).
func (s *Store) Bind(fs *FS) { s.fs = fs }

// SetDurable makes every flush job end with the layout's write
// barrier, so a block the cache counts as flushed is actually on
// stable storage — required for the NVRAM/UPS safety guarantee (and
// for the update daemon's 30-second bound to mean anything) on the
// on-line server. The simulator leaves it off: its flushes stay
// lazily batched in the open segment, the configuration the paper's
// latency figures measure.
func (s *Store) SetDurable(on bool) { s.durable = on }

// FlushBlocks routes one flush job (all blocks of one file) to the
// owning volume's array.
func (s *Store) FlushBlocks(t sched.Task, blocks []*cache.Block) error {
	if len(blocks) == 0 {
		return nil
	}
	if s.fs == nil {
		return fmt.Errorf("fsys: store not bound")
	}
	key := blocks[0].Key
	v := s.fs.vols[key.Vol]
	if v == nil {
		return fmt.Errorf("fsys: flush for unmounted volume %d", key.Vol)
	}
	ino, err := v.arr.GetInode(t, key.File)
	if err != nil {
		// The file vanished between dirtying and flushing (deleted
		// with blocks mid-flush); dropping the write is correct.
		return nil
	}
	wp := s.writes.Swap(nil)
	if wp == nil {
		wp = new([]layout.BlockWrite)
	}
	writes := (*wp)[:0]
	for _, b := range blocks {
		writes = append(writes, layout.BlockWrite{Blk: b.Key.Blk, Data: b.Data, Size: b.Size})
	}
	err = v.arr.WriteBlocks(t, ino, writes)
	clear(writes) // the spare pins no cache frame
	*wp = writes[:0]
	s.writes.Store(wp)
	if err != nil {
		return err
	}
	if s.durable {
		return v.arr.WriteBarrier(t)
	}
	return nil
}

// splitPath normalizes a path into components.
func splitPath(path string) ([]string, error) {
	parts := strings.Split(path, "/")
	out := parts[:0]
	for _, p := range parts {
		switch p {
		case "", ".":
			continue
		case "..":
			return nil, core.ErrInval // no parent traversal in this FS
		}
		if len(p) > core.MaxNameLen {
			return nil, core.ErrNameTooLon
		}
		out = append(out, p)
	}
	return out, nil
}
