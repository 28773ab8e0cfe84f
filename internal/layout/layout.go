// Package layout defines the framework's storage-layout component:
// the object that knows where file-system data and meta-data live on
// a raw disk and is consulted whenever something must be done with
// one. The base component is deliberately interface-only — "for all
// layout and policy decisions there exists a virtual method" — and
// concrete layouts (the segmented log-structured layout in
// internal/lfs, the FFS-like layout in internal/ffs) implement it.
// A layout is always a member of a volume array (internal/volume):
// the array is the one volume type the file-system front-end mounts,
// and Layout is the contract between the array and its members.
package layout

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sched"
)

// Inode is the in-memory representative of a file's meta-data. The
// block map is kept flat in memory (authoritative during a run) and
// serialized to the layout's on-disk form (direct/indirect pointers
// for the LFS and FFS layouts) when written.
type Inode struct {
	ID      core.FileID
	Type    core.FileType
	Size    int64
	Nlink   uint32
	Mode    uint32
	Version uint64
	MTime   int64 // ns since volume epoch
	CTime   int64
	ATime   int64

	// Blocks maps file block numbers to partition-relative block
	// addresses; -1 marks a hole.
	Blocks []int64

	// IndAddrs records where this file's indirect map blocks live,
	// so log cleaners can judge their liveness.
	IndAddrs []int64
}

// NBlocks returns the number of mapped file blocks.
func (ino *Inode) NBlocks() int { return len(ino.Blocks) }

// BlockAddr returns the address of file block b, or -1.
func (ino *Inode) BlockAddr(b core.BlockNo) int64 {
	if int(b) >= len(ino.Blocks) || b < 0 {
		return -1
	}
	return ino.Blocks[b]
}

// SetBlockAddr grows the map as needed and sets block b's address.
func (ino *Inode) SetBlockAddr(b core.BlockNo, addr int64) {
	for int(b) >= len(ino.Blocks) {
		ino.Blocks = append(ino.Blocks, -1)
	}
	ino.Blocks[b] = addr
}

// BlocksForSize returns how many blocks a file of n bytes spans.
func BlocksForSize(n int64) int64 {
	return (n + core.BlockSize - 1) / core.BlockSize
}

// BirthLinks is the link count a new inode of type typ starts with:
// a directory has its name and its own "."; anything else its name.
func BirthLinks(typ core.FileType) uint32 {
	if typ == core.TypeDirectory {
		return 2
	}
	return 1
}

// BlockWrite is one dirty block handed to the layout for placement.
type BlockWrite struct {
	Blk  core.BlockNo
	Data []byte // nil when simulated
	Size int    // valid bytes
}

// Layout is the member contract: the storage layout of one
// partition, which a volume array (internal/volume) is built from and
// the only caller of. LFS and FFS implement it. Everything above the
// array — fsys, Patsy, PFS — mounts a *volume.Array, never a bare
// layout, so the array is where width, placement and redundancy live
// and a layout only ever sees its own partition.
type Layout interface {
	Name() string

	// Format initializes an empty file system on the partition.
	Format(t sched.Task) error
	// Mount loads the layout's persistent state (superblock,
	// checkpoint, allocation maps).
	Mount(t sched.Task) error
	// Sync makes all accepted writes durable (checkpoint / flush
	// partial segment / write back allocation maps).
	Sync(t sched.Task) error
	// WriteBarrier pushes accepted writes still in a volatile staging
	// buffer (the LFS open segment) to stable storage without the
	// full checkpoint a Sync pays. The on-line server's cache flusher
	// issues it after every flush job, so "flushed" means durable —
	// the link that makes the NVRAM policies' guarantee hold end to
	// end (a block leaves the battery-backed domain only once the log
	// has it). A layout that writes in place durably (FFS) has nothing
	// staged: its barrier is a no-op.
	WriteBarrier(t sched.Task) error

	// AllocInode creates a fresh inode of the given type.
	AllocInode(t sched.Task, typ core.FileType) (*Inode, error)
	// RestoreInode recreates a specific inode number. Rebuild clones
	// the live inode space onto a freshly formatted replacement with
	// it, where the ordinary allocator would assign other numbers.
	RestoreInode(t sched.Task, id core.FileID, typ core.FileType) (*Inode, error)
	// GetInode fetches an inode by number.
	GetInode(t sched.Task, id core.FileID) (*Inode, error)
	// UpdateInode records changed inode meta-data.
	UpdateInode(t sched.Task, ino *Inode) error
	// FreeInode removes the file: blocks and inode are freed.
	FreeInode(t sched.Task, id core.FileID) error
	// LiveInodes lists the live inode numbers in ascending order
	// (array recovery re-syncs lockstep from them and rolls back
	// half-made allocations; rebuild and scrub sweep them).
	LiveInodes(t sched.Task) []core.FileID
	// InodeCursor is the sequential inode allocator's position, 0 for
	// a layout without one (FFS spreads by group); an array aligns
	// every member's cursor to the maximum so lockstep allocation
	// resumes, and skips the alignment at 0.
	InodeCursor(t sched.Task) uint64
	SetInodeCursor(t sched.Task, cur uint64)

	// ReadRunVec is the layout's one data read. It reads up to n
	// consecutive file blocks starting at blk as one device request,
	// as far as the clustering cap (SetClusterRun) and the on-disk
	// placement allow: the run ends where the disk addresses stop
	// being adjacent, and a hole reads as one zeroed block. A real
	// partition scatters the run straight into bufs, one BlockSize
	// segment per block (typically cache frames the caller has
	// claimed), and never covers more than len(bufs) blocks; empty
	// bufs there is core.ErrInval. A simulated partition takes nil
	// bufs and moves no data; the I/O still costs time. It returns how
	// many blocks the call covered, at least 1 on success; only
	// bufs[:covered] are filled. n = 1 — and any n with clustering off,
	// the simulator's default — reads exactly one block.
	ReadRunVec(t sched.Task, ino *Inode, blk core.BlockNo, n int, bufs [][]byte) (int, error)
	// WriteBlocks places and writes the given dirty blocks of one
	// file. A log-structured layout writes them contiguously. The
	// layout keeps no reference to any writes[i].Data once the call
	// returns, whether it succeeded or failed: the caller may rewrite
	// or reuse the buffers at once (a cache frame leaves its Flushing
	// window, an array reuses its parity accumulators). A layout that
	// stages past the call copies the bytes first.
	WriteBlocks(t sched.Task, ino *Inode, writes []BlockWrite) error
	// Truncate releases blocks beyond newSize.
	Truncate(t sched.Task, ino *Inode, newSize int64) error

	// PlaceExisting assigns addresses to a file that "already
	// existed" before a simulation began — the simulator's educated
	// guess: a random location, sticky once chosen. Real layouts
	// may reject it.
	PlaceExisting(t sched.Task, ino *Inode, size int64) error

	// FreeBlocks reports remaining allocatable capacity in blocks.
	FreeBlocks() int64

	// SetClusterRun sets the run-size cap in blocks for multi-block
	// device requests, on the write path (WriteBlocks emits one
	// request per block-number-contiguous, disk-address-contiguous
	// run) and the read path (ReadRunVec covers whole runs): 0 or 1
	// disables clustering, the simulator's byte-identical default;
	// n > 1 allows up to n blocks per request.
	SetClusterRun(n int)

	// StagedCopyBytes counts the payload bytes the layout copied into
	// buffers of its own instead of handing the caller's to the device
	// (partial blocks, writes that failed inside their flush window).
	// A zero on clustered real-kernel cells proves the zero-copy path
	// carried everything.
	StagedCopyBytes() int64

	// WithInode runs fn under the lock the layout's concurrent inode
	// readers hold (the LFS segment packer, the FFS inode encoder), so
	// a flush racing a namespace operation never encodes a
	// half-applied field update. Callers use it on the real kernel
	// only; the virtual kernel is cooperative (one task at a time) and
	// calls fn directly, keeping simulated schedules untouched. fn
	// must only touch inode fields — calling back into the layout
	// would self-deadlock.
	WithInode(t sched.Task, ino *Inode, fn func())
	// GrowSize publishes a file's logical-size growth under the same
	// lock, under the same real-kernel-only rule.
	GrowSize(t sched.Task, ino *Inode, size int64)

	// DurableSeq is a monotonically increasing durability sequence:
	// it advances only when staged metadata actually reaches stable
	// storage (the LFS log/checkpoint sequence, FFS's count of
	// synchronous metadata writes). The intent-log retirement path
	// snapshots it around a sync to prove the covering checkpoint is
	// durable before unretiring acknowledged namespace operations.
	DurableSeq(t sched.Task) uint64

	// Recover brings a crashed volume to a consistent, mountable
	// state: the LFS rolls the log forward from the newer checkpoint,
	// the FFS rebuilds its allocation bitmaps from the inode table.
	// It subsumes Mount — afterwards the layout is mounted, durable
	// and self-consistent.
	Recover(t sched.Task) (RecoveryStats, error)
	// Check verifies the mounted layout's on-image invariants (the
	// fsck pass) and returns every violation found.
	Check(t sched.Task) []error
}

// ErrNoPlaceExisting is returned by real layouts for PlaceExisting.
var ErrNoPlaceExisting = fmt.Errorf("layout: PlaceExisting is a simulator-only operation")

// DefaultClusterRun is the run-size cap instantiations use when they
// turn clustering on without naming one: 16 blocks (64 KB), a
// transfer long enough to amortize the per-request bus arbitration
// and controller overhead the disk model charges, short enough to
// keep queue latency bounded.
const DefaultClusterRun = 16

// SetClusterRun is a shim whose only caller is benchmark/, which
// passes a layout or a volume array; the next benchmark revision
// deletes it.
func SetClusterRun(lay interface{ SetClusterRun(n int) }, n int) bool {
	lay.SetClusterRun(n)
	return true
}

// SetVectored is a no-op shim whose only caller is benchmark/; the next benchmark revision deletes it.
func SetVectored(lay interface{ SetClusterRun(n int) }, on bool) bool { return true }

// ReadRunVec is a shim (ok always true) whose only caller is benchmark/; the next benchmark revision deletes it.
func ReadRunVec(t sched.Task, lay Layout, ino *Inode, blk core.BlockNo, n int, bufs [][]byte) (got int, ok bool, err error) {
	got, err = lay.ReadRunVec(t, ino, blk, n, bufs)
	return got, true, err
}

// Barrier is a shim name whose only user is benchmark/, which asserts
// it on a layout; every layout has the method. The next benchmark
// revision deletes it.
type Barrier interface {
	WriteBarrier(t sched.Task) error
}

// RecoveryStats summarizes one layout's crash-recovery pass.
type RecoveryStats struct {
	// RolledSegments counts post-checkpoint log segments replayed
	// (LFS roll-forward).
	RolledSegments int
	// DataBlocks counts file data blocks recovered past the last
	// durable state.
	DataBlocks int
	// InodeRecords counts inode records recovered from the log.
	InodeRecords int
	// OrphanBlocks counts rolled-over blocks whose owning file never
	// became durable — unrecoverable by design.
	OrphanBlocks int
	// TornTail reports that recovery stopped at a torn write (the
	// power cut landed mid-I/O); everything before it was applied.
	TornTail bool
	// Repairs lists human-readable fixes applied (FFS fsck-style
	// bitmap rebuilds, array shadow repairs).
	Repairs []string
}

// Add folds another pass's stats into s (array-wide totals).
func (s *RecoveryStats) Add(o RecoveryStats) {
	s.RolledSegments += o.RolledSegments
	s.DataBlocks += o.DataBlocks
	s.InodeRecords += o.InodeRecords
	s.OrphanBlocks += o.OrphanBlocks
	s.TornTail = s.TornTail || o.TornTail
	s.Repairs = append(s.Repairs, o.Repairs...)
}
