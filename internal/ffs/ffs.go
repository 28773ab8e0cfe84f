// Package ffs implements an FFS-like in-place storage layout — the
// kind of layout the paper names as the natural alternative to its
// segmented LFS ("to implement other storage-layouts such as a Unix
// FFS, a new derived storage-layout class needs to be written"). It
// serves as the comparison baseline in the layout ablation: cylinder
// groups with inode and data bitmaps, inodes at fixed locations,
// data allocated near its inode, updates written in place, and
// metadata written synchronously in the FFS tradition.
package ffs

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/sched"
	"repro/internal/stats"
)

// Config tunes the layout.
type Config struct {
	// BlocksPerGroup is the cylinder-group size in blocks.
	BlocksPerGroup int
	// InodesPerGroup fixes the inode table size per group.
	InodesPerGroup int
}

// DefaultConfig mirrors a small FFS: 2048-block (8 MB) groups with
// 256 inodes each.
func DefaultConfig() Config {
	return Config{BlocksPerGroup: 2048, InodesPerGroup: 256}
}

const superMagic = 0x46465331 // "FFS1"

// group bookkeeping offsets within a group (in blocks):
// 0 = inode bitmap, 1 = data bitmap, 2.. = inode table, then data.
const (
	gInoBitmap  = 0
	gDataBitmap = 1
	gInoTable   = 2
)

// FFS is the in-place layout.
type FFS struct {
	name string
	k    sched.Kernel
	part *layout.Partition
	cfg  Config
	mu   sched.Mutex

	ngroups   int
	itblks    int // inode-table blocks per group
	dataStart int // first data block within a group

	inoBits   []bitset // per group
	dataBits  []bitset
	bitsDirty bool
	tornMeta  []string // bitmap checksum mismatches found at Mount

	// durSeq counts synchronous metadata writes (inode records and
	// bitmap syncs) — the layout's durability watermark.
	durSeq uint64

	inodes  map[core.FileID]*layout.Inode
	mounted bool

	// clusterRun caps multi-block transfers; <= 1 keeps the classic
	// one-block-per-request behavior.
	clusterRun int

	reads, writes *stats.Counter
	inoWrites     *stats.Counter
	freeData      int64
}

// bitset is a simple block-sized bitmap. The last 8 bytes of the
// block are reserved for an FNV-1a checksum of the rest, stamped at
// every bitmap write: a sub-block tear of an in-place bitmap update
// would otherwise splice stale and fresh allocation state together
// undetectably. bitmapBits caps the usable bit space accordingly.
type bitset []byte

const bitmapBits = (core.BlockSize - 8) * 8

func bitmapSum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b[:core.BlockSize-8])
	return h.Sum64()
}

func (b bitset) get(i int) bool { return b[i/8]&(1<<(i%8)) != 0 }
func (b bitset) set(i int)      { b[i/8] |= 1 << (i % 8) }
func (b bitset) clear(i int)    { b[i/8] &^= 1 << (i % 8) }

// New builds an FFS over part.
func New(k sched.Kernel, name string, part *layout.Partition, cfg Config) *FFS {
	if cfg.BlocksPerGroup <= 0 {
		cfg = DefaultConfig()
	}
	if cfg.InodesPerGroup <= 0 {
		cfg.InodesPerGroup = 256
	}
	if cfg.InodesPerGroup%layout.InodesPerBlk != 0 {
		cfg.InodesPerGroup += layout.InodesPerBlk - cfg.InodesPerGroup%layout.InodesPerBlk
	}
	// The checksum tail of each bitmap block bounds the bit space.
	if cfg.BlocksPerGroup > bitmapBits {
		cfg.BlocksPerGroup = bitmapBits
	}
	if cfg.InodesPerGroup > bitmapBits {
		cfg.InodesPerGroup = bitmapBits
	}
	f := &FFS{
		name:      name,
		k:         k,
		part:      part,
		cfg:       cfg,
		mu:        k.NewMutex(name + ".ffs"),
		inodes:    make(map[core.FileID]*layout.Inode),
		reads:     stats.NewCounter(name + ".data_reads"),
		writes:    stats.NewCounter(name + ".data_writes"),
		inoWrites: stats.NewCounter(name + ".inode_writes"),
	}
	f.deriveGeometry()
	return f
}

// deriveGeometry recomputes sizes from the current configuration
// (set at New for Format, or read from the superblock by Mount).
func (f *FFS) deriveGeometry() {
	f.itblks = f.cfg.InodesPerGroup / layout.InodesPerBlk
	f.dataStart = gInoTable + f.itblks
	f.ngroups = int((f.part.Blocks - 1) / int64(f.cfg.BlocksPerGroup))
}

// Name returns "ffs".
func (f *FFS) Name() string { return "ffs" }

// SetClusterRun sets the run-size cap: data reads and writes
// may move up to n contiguous blocks per device request.
func (f *FFS) SetClusterRun(n int) {
	if n < 1 {
		n = 1
	}
	f.clusterRun = n
}

// ClusterRun returns the run-size cap, at least 1.
func (f *FFS) ClusterRun() int {
	if f.clusterRun < 1 {
		return 1
	}
	return f.clusterRun
}

// StagedCopyBytes is always zero: FFS writes in place, straight from
// the caller's buffers.
func (f *FFS) StagedCopyBytes() int64 { return 0 }

// groupBase returns the first block of group g (block 0 is the
// superblock).
func (f *FFS) groupBase(g int) int64 {
	return 1 + int64(g)*int64(f.cfg.BlocksPerGroup)
}

// inodeLoc maps an inode number to its group, table block and slot.
func (f *FFS) inodeLoc(id core.FileID) (g int, blk int64, slot int) {
	n := int(id)
	g = n / f.cfg.InodesPerGroup
	idx := n % f.cfg.InodesPerGroup
	blk = f.groupBase(g) + gInoTable + int64(idx/layout.InodesPerBlk)
	slot = idx % layout.InodesPerBlk
	return
}

// Format initializes empty groups.
func (f *FFS) Format(t sched.Task) error {
	f.mu.Lock(t)
	defer f.mu.Unlock(t)
	if f.ngroups < 1 {
		return fmt.Errorf("ffs %s: partition of %d blocks too small for one %d-block group",
			f.name, f.part.Blocks, f.cfg.BlocksPerGroup)
	}
	f.inoBits = make([]bitset, f.ngroups)
	f.dataBits = make([]bitset, f.ngroups)
	f.freeData = 0
	for g := 0; g < f.ngroups; g++ {
		f.inoBits[g] = make(bitset, core.BlockSize)
		f.dataBits[g] = make(bitset, core.BlockSize)
		// Bookkeeping blocks are permanently allocated.
		for i := 0; i < f.dataStart; i++ {
			f.dataBits[g].set(i)
		}
		f.freeData += int64(f.cfg.BlocksPerGroup - f.dataStart)
	}
	// Inode 0 and 1 reserved (Unix tradition); root is inode 2.
	f.inoBits[0].set(0)
	f.inoBits[0].set(1)
	if err := f.writeSuper(t); err != nil {
		return err
	}
	return f.syncBitmaps(t)
}

// Mount loads the superblock and bitmaps.
func (f *FFS) Mount(t sched.Task) error {
	f.mu.Lock(t)
	defer f.mu.Unlock(t)
	if f.part.Simulated {
		if f.inoBits == nil {
			return fmt.Errorf("ffs %s: simulated mount requires Format first", f.name)
		}
		f.mounted = true
		return nil
	}
	buf := make([]byte, core.BlockSize)
	if err := f.part.Read(t, 0, 1, buf); err != nil {
		return err
	}
	le := binary.LittleEndian
	if le.Uint32(buf[0:]) != superMagic {
		return fmt.Errorf("ffs %s: bad superblock magic", f.name)
	}
	bpg, ipg, ngroups := int(le.Uint32(buf[4:])), int(le.Uint32(buf[8:])), int(le.Uint32(buf[12:]))
	if err := f.checkGeometry(bpg, ipg, ngroups); err != nil {
		return fmt.Errorf("ffs %s: superblock: %w", f.name, err)
	}
	f.cfg.BlocksPerGroup, f.cfg.InodesPerGroup = bpg, ipg
	f.deriveGeometry()
	f.inoBits = make([]bitset, f.ngroups)
	f.dataBits = make([]bitset, f.ngroups)
	f.tornMeta = nil
	f.freeData = 0
	for g := 0; g < f.ngroups; g++ {
		f.inoBits[g] = make(bitset, core.BlockSize)
		f.dataBits[g] = make(bitset, core.BlockSize)
		if err := f.part.Read(t, f.groupBase(g)+gInoBitmap, 1, f.inoBits[g]); err != nil {
			return err
		}
		if err := f.part.Read(t, f.groupBase(g)+gDataBitmap, 1, f.dataBits[g]); err != nil {
			return err
		}
		// A checksum mismatch marks a torn bitmap write. The mount
		// proceeds (the bits may still be mostly right) but Check
		// reports it and Repair rebuilds from the inode table.
		if got := binary.LittleEndian.Uint64(f.inoBits[g][core.BlockSize-8:]); got != bitmapSum(f.inoBits[g]) {
			f.tornMeta = append(f.tornMeta,
				fmt.Sprintf("group %d inode bitmap checksum mismatch (torn write)", g))
		}
		if got := binary.LittleEndian.Uint64(f.dataBits[g][core.BlockSize-8:]); got != bitmapSum(f.dataBits[g]) {
			f.tornMeta = append(f.tornMeta,
				fmt.Sprintf("group %d data bitmap checksum mismatch (torn write)", g))
		}
		for i := f.dataStart; i < f.cfg.BlocksPerGroup; i++ {
			if !f.dataBits[g].get(i) {
				f.freeData++
			}
		}
	}
	f.mounted = true
	return nil
}

// checkGeometry validates the geometry a superblock records against
// the partition, so a damaged field fails the mount instead of
// dividing by zero, indexing past a bitmap or allocating bitmaps for
// a billion groups.
func (f *FFS) checkGeometry(bpg, ipg, ngroups int) error {
	if ipg <= 0 || ipg%layout.InodesPerBlk != 0 || ipg > bitmapBits {
		return fmt.Errorf("InodesPerGroup %d is not a positive multiple of %d up to %d", ipg, layout.InodesPerBlk, bitmapBits)
	}
	if dataStart := gInoTable + ipg/layout.InodesPerBlk; bpg <= dataStart || bpg > bitmapBits {
		return fmt.Errorf("BlocksPerGroup %d outside [%d, %d]", bpg, dataStart+1, bitmapBits)
	}
	if fit := (f.part.Blocks - 1) / int64(bpg); ngroups < 1 || int64(ngroups) != fit {
		return fmt.Errorf("%d groups, a %d-block partition holds %d", ngroups, f.part.Blocks, fit)
	}
	return nil
}

func (f *FFS) writeSuper(t sched.Task) error {
	var buf []byte
	if !f.part.Simulated {
		buf = make([]byte, core.BlockSize)
		le := binary.LittleEndian
		le.PutUint32(buf[0:], superMagic)
		le.PutUint32(buf[4:], uint32(f.cfg.BlocksPerGroup))
		le.PutUint32(buf[8:], uint32(f.cfg.InodesPerGroup))
		le.PutUint32(buf[12:], uint32(f.ngroups))
	}
	return f.part.Write(t, 0, 1, buf)
}

// syncBitmaps writes every group's bitmaps, stamping each block's
// checksum tail.
func (f *FFS) syncBitmaps(t sched.Task) error {
	le := binary.LittleEndian
	for g := 0; g < f.ngroups; g++ {
		var ib, db []byte
		if !f.part.Simulated {
			ib, db = f.inoBits[g], f.dataBits[g]
			le.PutUint64(ib[core.BlockSize-8:], bitmapSum(ib))
			le.PutUint64(db[core.BlockSize-8:], bitmapSum(db))
		}
		if err := f.part.Write(t, f.groupBase(g)+gInoBitmap, 1, ib); err != nil {
			return err
		}
		if err := f.part.Write(t, f.groupBase(g)+gDataBitmap, 1, db); err != nil {
			return err
		}
	}
	f.bitsDirty = false
	f.durSeq++
	return nil
}

// DurableSeq is the durability watermark: FFS metadata is
// written synchronously, so the watermark is simply a count of the
// synchronous metadata writes performed.
func (f *FFS) DurableSeq(t sched.Task) uint64 {
	f.mu.Lock(t)
	defer f.mu.Unlock(t)
	return f.durSeq
}

// Sync flushes bitmaps (inodes are written synchronously already).
func (f *FFS) Sync(t sched.Task) error {
	f.mu.Lock(t)
	defer f.mu.Unlock(t)
	if f.bitsDirty {
		return f.syncBitmaps(t)
	}
	return nil
}

// FreeBlocks reports free data blocks.
func (f *FFS) FreeBlocks() int64 {
	// Same publication rule as the LFS log head: allocators move
	// freeData under f.mu on the real kernel.
	if !f.k.Virtual() {
		f.mu.Lock(nil)
		defer f.mu.Unlock(nil)
	}
	return f.freeData
}

// Stats registers the layout's counters.
func (f *FFS) Stats(set *stats.Set) {
	set.Add(f.reads)
	set.Add(f.writes)
	set.Add(f.inoWrites)
}

func (f *FFS) String() string {
	return fmt.Sprintf("ffs %s: %d groups × %d blocks, %d inodes/group",
		f.name, f.ngroups, f.cfg.BlocksPerGroup, f.cfg.InodesPerGroup)
}
