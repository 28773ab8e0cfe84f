// Package volume implements the framework's volume: an array that
// owns N independent disk stacks (each its own bus, disk, driver and
// storage layout) and is the one volume type the file-system
// front-end mounts. Every volume is an array — Patsy's fourteen
// Sprite file systems are fourteen one-member arrays, PFS's image set
// one array of any width — so fsys, the cache, Patsy, PFS and the
// network front-end see one surface whatever the width, and the
// layouts (layout.Layout, the member contract) see only their own
// partition.
//
// The manager keeps the component library's cut-and-paste shape: the
// members are ordinary LFS or FFS instances, each formatted onto its
// own partition, and an assembly mounts the array with
// fsys.AddVolume. Placement is a policy point with four
// implementations:
//
//   - "affinity": every file lives wholly on one sub-volume chosen
//     by a hash of its inode number — the paper's many-file-systems-
//     over-many-disks situation collapsed behind a single mount.
//   - "striped": file data is striped across every sub-volume in
//     chunks of StripeBlocks, rotated by the file's home volume, so
//     large files spread their I/O over all disks.
//   - "mirrored": every chunk is written to two members (chained
//     declustering: the copy lives on the primary's successor), so
//     the array serves through the loss of any single member.
//   - "parity": RAID-5-style rotated parity — stripes of n-1 data
//     chunks plus one parity chunk whose member rotates with the
//     stripe, tolerating any single member loss at 1/n capacity
//     overhead instead of mirroring's 1/2.
//
// A placement is only a mapping (place.go): a global block becomes
// cells, each a (member, local block, role) with role data, copy or
// parity, grouped into columns — a column is data cells plus at most
// one check cell, and any cell's content is the XOR of the rest of
// its column. A mirror is a one-data-cell column whose check cell is
// a copy; a parity column is n-1 data cells and their parity cell;
// affinity and striped columns are one data cell and no check. One
// executor (exec.go) drives those cells for every placement: reads
// take the data cell or reconstruct from the rest of the column,
// writes plan cells into per-member batches and fan them out, and
// rebuild, scrub and post-crash repair (rebuild.go, recover.go) sweep
// the same cells — so the redundant placements serve degraded,
// keep copies/parity consistent through a member's death, and rebuild
// a replacement online from the survivors.
//
// Inode numbers stay in lockstep across the sub-layouts: every
// allocation and free is applied to all of them in order, so a
// file's ID is the same everywhere and routing needs no translation
// table. An affinity file is wholly its home member's, so the array
// keeps nothing for it. Otherwise the manager keeps a global inode per
// file (the object the front-end sees) and per-sub shadow inodes that
// carry each volume's share of the block map; the carrier shadows (the
// home, plus its successor under redundancy) also persist the global
// size and metadata, which is what makes a real-mode array
// remountable. Writes and Sync fan out to the sub-volumes, one task
// per member on either kernel.
//
// Crash consistency across the array is per-sub-volume only (as with
// any striped volume manager without a write-ahead log): a crash
// between sub syncs can lose the tail of a stripe. A one-block label
// file written on sub-volume 0 records the array geometry so a real
// array refuses to mount under the wrong -volumes/-placement/-stripe
// configuration.
package volume

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/sched"
	"repro/internal/stats"
)

// Placement policy names.
const (
	PlacementAffinity = "affinity"
	PlacementStriped  = "striped"
	PlacementMirrored = "mirrored"
	PlacementParity   = "parity"
)

// DefaultStripeBlocks is the stripe width used when none is given:
// 8 blocks (32 KB), two of the trace generator's IO chunks.
const DefaultStripeBlocks = 8

// Config selects the array's policies.
type Config struct {
	// Placement routes file data: "affinity" (default), "striped",
	// "mirrored" (needs ≥ 2 members) or "parity" (needs ≥ 3).
	Placement string
	// StripeBlocks is the stripe chunk width in file-system blocks
	// for the striped and redundant placements (default
	// DefaultStripeBlocks).
	StripeBlocks int
	// Simulated marks an array whose partitions move no data; it
	// gates the simulator-only PlaceExisting path and skips label
	// persistence.
	Simulated bool
}

// labelFileID is the reserved inode number of the array's geometry
// label, allocated on every sub-volume right after the root
// directory. It only holds on layouts with sequential inode
// allocation (the LFS); when a sub-layout assigns a different
// number, the label is simply not persisted.
const labelFileID = core.RootFile + 1

// afile is the array's per-file state. Only array-owned files (every
// placement but affinity) have a record in the file table; an
// affinity file's is derived on each call (see file).
type afile struct {
	id   core.FileID
	home int
	mu   sched.Mutex // serializes write/truncate/free fan-outs (memberOrdered under affinity)

	// global is the inode the front-end holds. In affinity mode it
	// is the home sub-volume's inode itself, and the file's only
	// shadow; in striped and redundant modes it is array-owned and
	// shadows carry the per-sub block maps.
	global *layout.Inode
	// shadows is indexed by sub, nil under affinity. A rebuild's
	// attach swaps the dead member's slot while I/O issued to that
	// member before its death may still read it; readers load a
	// member's layout (Array.sub) before its shadow, and the attach
	// stores the shadow first, so a replacement layout is never paired
	// with its predecessor's inode.
	shadows []atomic.Pointer[layout.Inode]

	// rebuilt, during an online rebuild, marks that this file's share
	// on the dead member has been reconstructed onto the attached
	// replacement: reads of that member may go direct again and
	// parity updates may read-modify-write it. Written under af.mu;
	// read locklessly on the read path, hence atomic.
	rebuilt atomic.Bool
}

// shadow is the file's inode on member s: under affinity, the global
// inode (the home member's own, the only one the file has).
func (af *afile) shadow(s int) *layout.Inode {
	if af.shadows == nil {
		return af.global
	}
	return af.shadows[s].Load()
}

// Array is the volume manager, the volume fsys mounts.
type Array struct {
	k    sched.Kernel
	name string
	subs []layout.Layout
	cfg  Config
	pl   place

	// What width changes, decided once in New. With several members
	// the array keeps them in lockstep: an allocation holds a.mu
	// across the member calls (lookups wait for it), the label's inode
	// is reserved right after the root, and Recover ends with a sync
	// of them all; a real array also persists and validates the
	// geometry label (labeled). A lone member's inode numbers, locking,
	// recovery and image are its own.
	lockstep, labeled bool

	// Degraded/rebuild state. deadIdx is the dead member (-1 none);
	// attachIdx is the member whose rebuild replacement is attached
	// and receiving writes (-1 none); eff, when non-nil, is the
	// effective member slice with replacements swapped in (a.subs
	// itself stays immutable so lock-free readers never race a swap).
	deadIdx   atomic.Int32
	attachIdx atomic.Int32
	eff       atomic.Pointer[[]layout.Layout]

	// maint is the single maintenance gate: Rebuild and Scrub each
	// CAS it from idle and refuse (ErrBusy) when the other holds it,
	// so a supervisor and an admin override can never run two repair
	// passes over the same files at once. Progress counters export to
	// telemetry.
	maint        atomic.Int32
	rebuildDone  atomic.Int64
	rebuildTotal atomic.Int64

	// rebuildDelay is the rebuild's I/O budget against live traffic:
	// a pause (ns) inserted after every copy batch. Zero = full speed;
	// only tests set a pause, to stretch a rebuild over live traffic.
	rebuildDelay atomic.Int64

	// Hot-spare pool: idle pre-constructed member stacks a confirmed
	// death promotes onto (spare.go). origin records each member's
	// lineage (the spare index it was promoted from, -1 = original),
	// persisted in the geometry label. All under spareMu — a plain
	// mutex, so admin scrapers may read pool state without kernel
	// involvement.
	spareMu       sync.Mutex
	spares        []layout.Layout
	origin        []int32
	promotions    atomic.Int64
	spareRefusals atomic.Int64

	// ppl is the battery-backed partial-parity log guarding in-flight
	// degraded column updates against the RAID-5 write hole (see
	// paritylog.go).
	ppl parityLog

	// dirs stands in for a simulated array's directory blocks, which
	// carry no payload: each directory's entries as of the last sync
	// that emptied the cache, by inode and generation (fsys keeps
	// them). Simulated arrays run on the virtual kernel, one task at
	// a time, so the map needs no lock.
	dirs map[dirKey]map[string]core.FileID

	mu        sched.Mutex
	files     map[core.FileID]*afile // array-owned files only
	labels    []*layout.Inode        // per-member shadows of the label file
	labelDone bool

	// The member fan's event and task names, built once, and its
	// pooled state.
	fanEvent string
	fanTasks []string
	fans     sync.Pool

	reads    *stats.Group
	writes   *stats.Group
	syncs    *stats.Counter
	degraded *stats.Counter // reads served by reconstruction
}

// New builds an array over subs (LFS or FFS layouts). The sub-layouts
// must be freshly constructed (unformatted/unmounted); call Format or
// Mount on the array, never on the subs directly, so the lockstep
// invariant holds.
func New(k sched.Kernel, name string, subs []layout.Layout, cfg Config) (*Array, error) {
	if len(subs) == 0 {
		return nil, fmt.Errorf("volume %s: array needs at least one sub-volume", name)
	}
	if cfg.StripeBlocks <= 0 {
		cfg.StripeBlocks = DefaultStripeBlocks
	}
	pl, err := newPlace(cfg.Placement, len(subs), cfg.StripeBlocks)
	if err != nil {
		return nil, fmt.Errorf("volume %s: %w", name, err)
	}
	cfg.Placement = pl.name
	a := &Array{k: k, name: name, subs: slices.Clone(subs), cfg: cfg, pl: pl}
	a.deadIdx.Store(-1)
	a.attachIdx.Store(-1)
	a.origin = make([]int32, len(subs))
	for i := range a.origin {
		a.origin[i] = -1
	}
	a.lockstep = len(subs) > 1
	a.labeled = a.lockstep && !cfg.Simulated
	a.mu = k.NewMutex(name + ".array")
	a.files = make(map[core.FileID]*afile)
	a.reads = stats.NewGroup(name + ".array_blocks_read")
	a.writes = stats.NewGroup(name + ".array_blocks_written")
	a.fanEvent = name + ".fan"
	for i := range subs {
		lbl := fmt.Sprintf("d%d", i)
		a.reads.Member(lbl)
		a.writes.Member(lbl)
		a.fanTasks = append(a.fanTasks, name+".fan."+lbl)
	}
	a.fans.New = a.newFanout
	a.syncs = stats.NewCounter(name + ".array_syncs")
	if pl.redundant() {
		// Registered only for redundant placements so the existing
		// placements' stats output stays byte-identical.
		a.degraded = stats.NewCounter(name + ".array_degraded_reads")
	}
	return a, nil
}

// Width returns the number of sub-volumes.
func (a *Array) Width() int { return len(a.subs) }

// SetClusterRun forwards the run-size cap to every member.
func (a *Array) SetClusterRun(n int) {
	for _, sub := range a.subs {
		sub.SetClusterRun(n)
	}
}

// StagedCopyBytes sums the effective members' staged-copy bytes.
func (a *Array) StagedCopyBytes() int64 {
	var n int64
	for _, sub := range a.effSubs() {
		n += sub.StagedCopyBytes()
	}
	return n
}

// Placement returns the placement policy in effect.
func (a *Array) Placement() string { return a.cfg.Placement }

// Simulated reports whether the array's partitions move no data.
func (a *Array) Simulated() bool { return a.cfg.Simulated }

type dirKey struct {
	id  core.FileID
	gen uint64
}

// SimDir returns the entries a simulated array keeps for directory id
// at generation gen (nil if none).
func (a *Array) SimDir(id core.FileID, gen uint64) map[string]core.FileID {
	return a.dirs[dirKey{id, gen}]
}

// KeepSimDir keeps ents as directory id's entries at generation gen.
func (a *Array) KeepSimDir(id core.FileID, gen uint64, ents map[string]core.FileID) {
	if a.dirs == nil {
		a.dirs = make(map[dirKey]map[string]core.FileID)
	}
	a.dirs[dirKey{id, gen}] = ents
}

// Subs returns the effective sub-layouts — rebuild replacements
// swapped in (read-only use: checks, reports).
func (a *Array) Subs() []layout.Layout { return a.effSubs() }

// Name identifies the array and its shape; a width-1 array reports
// its member's own name.
func (a *Array) Name() string {
	if len(a.subs) == 1 {
		return a.subs[0].Name()
	}
	return fmt.Sprintf("array(%dx%s,%s)", len(a.subs), a.subs[0].Name(), a.pl)
}

// home hashes an inode number onto its home sub-volume with a
// splitmix64-style finalizer, so consecutive IDs spread evenly and
// deterministically.
func (a *Array) home(id core.FileID) int {
	x := uint64(id)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(len(a.subs)))
}

// Format initializes every sub-volume.
func (a *Array) Format(t sched.Task) error {
	for i, sub := range a.subs {
		if err := sub.Format(t); err != nil {
			return fmt.Errorf("volume %s: format sub %d: %w", a.name, i, err)
		}
	}
	return nil
}

// Mount mounts every sub-volume and, on a real array, validates the
// geometry label written by the incarnation that formatted it.
func (a *Array) Mount(t sched.Task) error {
	for i, sub := range a.subs {
		if int(a.deadIdx.Load()) == i {
			continue // dead member: mounted by rebuild onto a replacement
		}
		if err := sub.Mount(t); err != nil {
			return fmt.Errorf("volume %s: mount sub %d: %w", a.name, i, err)
		}
	}
	if a.labeled {
		return a.readLabel(t)
	}
	return nil
}

// Sync flushes every sub-volume, one task per member (see fan). The
// geometry label is written (once) before the first real sync so it
// is covered by the sub-0 checkpoint.
func (a *Array) Sync(t sched.Task) error {
	a.mu.Lock(t)
	needLabel := a.labeled && !a.labelDone && a.labelReady()
	if needLabel {
		a.labelDone = true // claimed; concurrent syncs skip it
	}
	a.mu.Unlock(t)
	if needLabel {
		if err := a.writeLabel(t); err != nil {
			a.mu.Lock(t)
			a.labelDone = false
			a.mu.Unlock(t)
			return err
		}
	}
	a.syncs.Inc()
	return a.fan(t, a.writeAlive, func(st sched.Task, i int) error {
		sub := a.sub(i)
		if err := sub.Sync(st); err != nil && !a.noteDeadErr(i, sub, err) {
			return fmt.Errorf("volume %s: sync sub %d: %w", a.name, i, err)
		}
		return nil // a member that died at the hardware: redundancy carries its share
	})
}

// labelReady reports (under a.mu) whether the label shadows exist and
// carry the reserved ID — i.e. the label file can be written. Dead
// members' entries may be nil placeholders.
func (a *Array) labelReady() bool {
	if a.labels == nil {
		return false
	}
	for _, l := range a.labels {
		if l != nil {
			return l.ID == labelFileID
		}
	}
	return false
}

// AllocInode creates a file on every sub-volume in lockstep and
// returns the array's global inode. The first allocation is the
// root directory; the geometry label file is allocated immediately
// after it so the reserved ID is stable.
func (a *Array) AllocInode(t sched.Task, typ core.FileType) (*layout.Inode, error) {
	if a.lockstep {
		a.mu.Lock(t)
		defer a.mu.Unlock(t)
	}
	h, shadows, err := a.alloc(t, typ, a.pl.owned())
	if err != nil {
		return nil, err
	}
	if h.ID == core.RootFile && a.lockstep && a.labels == nil {
		// The label is array metadata, not a client file: each member
		// keeps its own copy and it never enters the file table.
		if _, a.labels, err = a.alloc(t, core.TypeRegular, true); err != nil {
			return nil, fmt.Errorf("volume %s: label allocation: %w", a.name, err)
		}
	}
	if !a.pl.owned() {
		return h, nil
	}
	af := a.adopt(h.ID, shadows, h)
	// A file born while a replacement is attached is fully written
	// there from its first block; nothing needs rebuilding.
	af.rebuilt.Store(a.attachIdx.Load() >= 0)
	return af.global, nil
}

// alloc applies one allocation to every sub-volume, keeping their
// inode spaces in lockstep, and returns the file's live carrier's
// inode. With keep it also returns every member's inode, indexed by
// member; a dead member is skipped, and its entry becomes an
// unpersisted placeholder that rebuild makes real. Caller holds a.mu
// when the array is lockstep.
func (a *Array) alloc(t sched.Task, typ core.FileType, keep bool) (*layout.Inode, []*layout.Inode, error) {
	var shadows []*layout.Inode
	if keep {
		shadows = make([]*layout.Inode, len(a.subs))
	}
	var h *layout.Inode
	var id core.FileID
	got := false
	undo := func(upto int) {
		for j := 0; j < upto; j++ {
			if a.writeAlive(j) {
				_ = a.sub(j).FreeInode(t, id)
			}
		}
	}
	for i := range a.subs {
		if !a.writeAlive(i) {
			continue
		}
		ino, err := a.sub(i).AllocInode(t, typ)
		if err != nil {
			// Restore lockstep: undo the allocations already made.
			undo(i)
			return nil, nil, err
		}
		if !got {
			id, got = ino.ID, true
		} else if ino.ID != id {
			_ = a.sub(i).FreeInode(t, ino.ID)
			undo(i)
			return nil, nil, fmt.Errorf("volume %s: sub-volume %d allocated inode %d, want %d (lockstep broken)",
				a.name, i, ino.ID, id)
		}
		if i == a.liveCarrier(a.home(id)) {
			h = ino
		}
		if keep {
			shadows[i] = ino
		}
	}
	if !got {
		return nil, nil, fmt.Errorf("volume %s: no live member to allocate on", a.name)
	}
	for i := range shadows {
		if shadows[i] == nil {
			// Dead member: an unpersisted placeholder holds the slot so
			// routing and rebuild have a shadow object to work with.
			shadows[i] = &layout.Inode{ID: id, Type: typ, Nlink: layout.BirthLinks(typ)}
		}
	}
	return h, shadows, nil
}

// adopt enters an array-owned file into the table over its shadows.
// The global inode is built from the carrier shadow h's scalars (the
// carrier's size field carries the global size). Caller holds a.mu.
func (a *Array) adopt(id core.FileID, shadows []*layout.Inode, h *layout.Inode) *afile {
	af := &afile{id: id, home: a.home(id), mu: a.k.NewMutex(fmt.Sprintf("%s.f%d", a.name, id)),
		shadows: make([]atomic.Pointer[layout.Inode], len(shadows))}
	for i, sh := range shadows {
		af.shadows[i].Store(sh)
	}
	af.global = new(layout.Inode)
	af.global.Snapshot(h)
	a.files[id] = af
	return af
}

// memberOrdered is an affinity file's fan-out lock: none, for the file
// is wholly its home member's, whose own lock orders every change.
type memberOrdered struct{}

func (memberOrdered) Lock(sched.Task)   {}
func (memberOrdered) Unlock(sched.Task) {}

// liveCarrier returns the file's first carrier that is not dead (the
// home when none is: impossible under the single-fault model).
func (a *Array) liveCarrier(home int) int {
	for i := 0; i < a.pl.carriers(); i++ {
		if s := a.pl.carrier(home, i); s != int(a.deadIdx.Load()) {
			return s
		}
	}
	return home
}

// lookup returns the table record of an array-owned file, or nil.
func (a *Array) lookup(t sched.Task, id core.FileID) *afile {
	a.mu.Lock(t)
	af := a.files[id]
	a.mu.Unlock(t)
	return af
}

// file returns the per-file state the executor's reads and writes
// work on, for an inode the front-end holds, or nil when the array no
// longer has the file. An array-owned file's is its table record. An affinity file has nothing to keep: every field
// follows from the inode (the home by hash, the inode itself as the
// global inode and only shadow, the no-op fan-out lock, nothing to
// rebuild), so it is written into scratch, which the caller owns —
// a variable on its stack or its lent write batch. No record is made
// per file, and none is recycled that a stale holder could misuse.
func (a *Array) file(t sched.Task, ino *layout.Inode, scratch *afile) *afile {
	if a.pl.owned() {
		return a.lookup(t, ino.ID)
	}
	*scratch = afile{id: ino.ID, home: a.home(ino.ID), mu: memberOrdered{}, global: ino}
	return scratch
}

// GetInode returns the global inode, loading the per-sub shadows
// from a real array on first access after a remount. An affinity
// file's inode is its home member's own: the member is asked every
// time, under its lock alone. An array-owned file is looked up under
// a.mu, which an allocation holds across the members.
func (a *Array) GetInode(t sched.Task, id core.FileID) (*layout.Inode, error) {
	if !a.pl.owned() {
		return a.sub(a.home(id)).GetInode(t, id)
	}
	a.mu.Lock(t)
	defer a.mu.Unlock(t)
	if af := a.files[id]; af != nil {
		return af.global, nil
	}
	carrier := a.liveCarrier(a.home(id))
	h, err := a.sub(carrier).GetInode(t, id)
	if err != nil {
		return nil, err
	}
	shadows := make([]*layout.Inode, len(a.subs))
	shadows[carrier] = h
	for i := range a.subs {
		switch {
		case i == carrier:
		case !a.writeAlive(i):
			// Dead member: placeholder shadow; reads reconstruct.
			shadows[i] = &layout.Inode{ID: id, Type: h.Type, Nlink: 1}
		default:
			if shadows[i], err = a.sub(i).GetInode(t, id); err != nil {
				return nil, fmt.Errorf("volume %s: sub %d shadow of inode %d: %w", a.name, i, id, err)
			}
		}
	}
	return a.adopt(id, shadows, h).global, nil
}

// UpdateInode records changed meta-data on the file's carriers, which
// persist it.
func (a *Array) UpdateInode(t sched.Task, ino *layout.Inode) error {
	if !a.pl.owned() {
		return a.sub(a.home(ino.ID)).UpdateInode(t, ino)
	}
	af := a.lookup(t, ino.ID)
	if af == nil {
		return core.ErrStale
	}
	// Copy the front inode's metadata to each carrier shadow through a
	// snapshot (two leaf locks are never held at once) and mirror the
	// size, all under af.mu, so that concurrent updates of one file
	// reach the carriers in snapshot order.
	var meta layout.Inode
	af.mu.Lock(t)
	meta.Snapshot(ino)
	for i := 0; i < a.pl.carriers(); i++ {
		if s := a.pl.carrier(af.home, i); a.writeAlive(s) {
			setMeta(af.shadow(s), &meta)
		}
	}
	err := a.mirrorSizes(t, af)
	af.mu.Unlock(t)
	for i := 0; i < a.pl.carriers() && err == nil; i++ {
		if s := a.pl.carrier(af.home, i); a.writeAlive(s) {
			err = a.sub(s).UpdateInode(t, af.shadow(s))
		}
	}
	return err
}

// setMeta copies the scalar metadata a carrier shadow mirrors from
// src, a private snapshot, under dst's leaf lock. The type is not
// among them: every shadow is born with the file's type and keeps it,
// so readers such as a rebuild's attach take it without the lock.
func setMeta(dst, src *layout.Inode) {
	dst.Lock()
	defer dst.Unlock()
	dst.Nlink, dst.Mode = src.Nlink, src.Mode
	dst.MTime, dst.CTime, dst.ATime = src.MTime, src.CTime, src.ATime
}

// FreeInode removes the file from every sub-volume in lockstep.
func (a *Array) FreeInode(t sched.Task, id core.FileID) error {
	af := a.lookup(t, id)
	if af != nil {
		af.mu.Lock(t)
		defer af.mu.Unlock(t)
	}
	home := a.home(id)
	var homeErr, otherErr error
	for i := range a.subs {
		if !a.writeAlive(i) {
			continue // dead member: nothing persisted there to free
		}
		err := a.sub(i).FreeInode(t, id)
		switch {
		case i == home:
			homeErr = err
		case err != nil && !errors.Is(err, core.ErrNotFound) && otherErr == nil:
			otherErr = err
		}
	}
	a.mu.Lock(t)
	delete(a.files, id)
	a.mu.Unlock(t)
	if homeErr != nil {
		return homeErr
	}
	return otherErr
}

// Truncate releases blocks beyond newSize on every sub-volume.
func (a *Array) Truncate(t sched.Task, ino *layout.Inode, newSize int64) error {
	if !a.pl.owned() {
		return a.sub(a.home(ino.ID)).Truncate(t, ino, newSize)
	}
	af := a.lookup(t, ino.ID)
	if af == nil {
		return core.ErrStale
	}
	af.mu.Lock(t)
	defer af.mu.Unlock(t)
	keep := layout.BlocksForSize(newSize)
	for s := range a.subs {
		if !a.writeAlive(s) {
			continue
		}
		if err := a.sub(s).Truncate(t, af.shadow(s), a.pl.localBlocks(af.home, s, keep)*core.BlockSize); err != nil {
			return fmt.Errorf("volume %s: truncate sub %d: %w", a.name, s, err)
		}
	}
	af.global.Trim(newSize, int64(a.k.Now()))
	// Re-truncate the carriers to the global size: their local maps
	// are already trimmed, so this only records the size.
	return a.mirrorSizes(t, af)
}

// PlaceExisting spreads a preexisting file's educated-guess
// placement over the sub-volumes the same way real writes would.
func (a *Array) PlaceExisting(t sched.Task, ino *layout.Inode, size int64) error {
	if !a.cfg.Simulated {
		return layout.ErrNoPlaceExisting
	}
	if !a.pl.owned() {
		return a.sub(a.home(ino.ID)).PlaceExisting(t, ino, size)
	}
	af := a.lookup(t, ino.ID)
	if af == nil {
		return core.ErrStale
	}
	af.mu.Lock(t)
	defer af.mu.Unlock(t)
	for s := range a.subs {
		lk := a.pl.localBlocks(af.home, s, layout.BlocksForSize(size))
		if lk == 0 || !a.writeAlive(s) {
			continue
		}
		if err := a.sub(s).PlaceExisting(t, af.shadow(s), lk*core.BlockSize); err != nil {
			return err
		}
	}
	af.global.SetSize(size)
	return nil
}

// FreeBlocks reports the array's aggregate remaining capacity.
func (a *Array) FreeBlocks(t sched.Task) int64 {
	var sum int64
	for _, sub := range a.subs {
		sum += sub.FreeBlocks(t)
	}
	return sum
}

// DegradedReads returns the count of reads served by reconstruction
// (0 for non-redundant placements).
func (a *Array) DegradedReads() int64 {
	if a.degraded == nil {
		return 0
	}
	return a.degraded.Value()
}

// RebuildProgress reports the online rebuild's progress: files copied
// and the total in the current pass (both zero when no rebuild ran).
func (a *Array) RebuildProgress() (done, total int64) {
	return a.rebuildDone.Load(), a.rebuildTotal.Load()
}

// ReadGroup returns the per-member routed-read counters.
func (a *Array) ReadGroup() *stats.Group { return a.reads }

// WriteGroup returns the per-member routed-write counters.
func (a *Array) WriteGroup() *stats.Group { return a.writes }

// SyncCounter returns the array-sync counter.
func (a *Array) SyncCounter() *stats.Counter { return a.syncs }
