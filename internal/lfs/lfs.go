// Package lfs implements the framework's segmented log-structured
// storage layout, the layout the paper runs on every volume of the
// Sprite replay: file-system updates are appended to the end of a
// log divided into fixed-size segments, files are found through an
// inode map (the IFILE), and a pluggable log-cleaner reclaims
// segments. The same component instantiates for the on-line system
// (real bytes through the driver) and the simulator (timing only).
//
// On-disk layout, in file-system blocks, all partition-relative:
//
//	0                  superblock (format magic, then geometry)
//	1 .. cp            checkpoint region A (header + segment-usage table)
//	1+cp .. 2cp        checkpoint region B (alternate)
//	seg0 ...           segments: [summary block][slot 0 … slot n-1]
//
// A segment written to a real partition fills from both ends: file
// data (and inode-map chunks, and the cleaner's copies) take slots 0,
// 1, 2 …, inode and indirect blocks take slots n-1, n-2 …, and the
// segment is full when the two meet. The summary block is positional
// — entry i describes slot i: kind, owner, and a checksum of the
// slot's bytes — and its count word carries the front count in the
// low 16 bits and the back count in the high 16 (images written
// before this have a zero high half and read as front-only). Simulated
// partitions fill front-only; their segment is one sequential I/O.
//
// The superblock's magic is the format version and every summary
// repeats it: "LFS1" volumes checksum slots and checkpoint regions
// with FNV-1a, "LFS2" volumes (what Format writes) with CRC32C. A
// volume keeps its version for life; simulated partitions carry no
// bytes and compute no checksums.
//
// A write barrier does not close the open segment: it writes what is
// staged, packs the dirty inodes into the back, and rewrites the one
// summary block in place. The summary only grows, so a torn rewrite
// leaves the acknowledged entries intact; roll-forward replays a
// segment's front ascending, then its back descending (oldest
// metadata first), each up to its first bad checksum. Segments retire
// when full, at Sync, and with the cleaner's final commit.
//
// The inode map is chunked (256 inodes of 16 bytes per chunk); dirty
// chunks are written into the log like data and their addresses are
// recorded in the checkpoint header, which is what makes them — and
// everything else — findable after a crash.
package lfs

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/sched"
	"repro/internal/stats"
)

// Config tunes the layout.
type Config struct {
	// SegBlocks is the segment size in blocks (summary included).
	SegBlocks int
	// MinFreeSegs triggers the cleaner; CleanTargetSegs is where it
	// stops.
	MinFreeSegs     int
	CleanTargetSegs int
	// Cleaner names the victim-selection policy: "greedy" or
	// "cost-benefit" (default).
	Cleaner string
	// MaxInodes bounds the inode map.
	MaxInodes int
}

// DefaultConfig returns the configuration used by the experiments:
// 512 KB segments, cost-benefit cleaning.
func DefaultConfig() Config {
	return Config{
		SegBlocks:       128,
		MinFreeSegs:     4,
		CleanTargetSegs: 8,
		Cleaner:         "cost-benefit",
		MaxInodes:       1 << 16,
	}
}

// entry kinds recorded in segment summaries.
const (
	kindData uint8 = iota + 1
	kindIndirect
	kindInode
	kindImap
)

// sumEntry describes one block of a segment.
type sumEntry struct {
	Kind uint8
	File core.FileID
	Blk  int64 // block-in-file (data), group index (indirect), chunk (imap)
}

// imapEnt is one inode-map slot.
type imapEnt struct {
	addr    int64 // block holding the inode record, -1 if free
	slot    uint8 // record index within the block
	version uint32
}

// segInfo is one segment-usage-table entry.
type segInfo struct {
	live  int32  // live blocks (excluding summary)
	seq   uint32 // log sequence when last written (age proxy)
	state uint8  // segFree, segInUse, segCurrent
}

const (
	segFree uint8 = iota
	segInUse
	segCurrent
)

// segBuf is the in-memory open segment. On a real partition vec holds
// one segment per block — vec[0] an owned summary buffer, vec[1+i]
// slot i's bytes, which for full data blocks alias the appender's
// buffer: a Flushing-stable cache frame or the cleaner's immutable
// victim read. A cache-frame alias is only stable while its flush job
// is in flight, so slots are written through to the device before the
// job returns (writeThrough); done/backDone and sums record how far
// that has progressed and the checksums (the volume format's: CRC32C
// on v2, FNV-1a on v1) captured from the bytes the device actually saw.
//
// A real segment fills from both ends: data, inode-map chunks and
// cleaner copies take slots 0, 1, 2 … (used counts them), inode and
// indirect blocks take slots dataSlots-1, dataSlots-2 … (back counts
// them), and the segment is full when the two meet. A write barrier
// appends a block or two of metadata after every flush job; kept at
// the far end they do not break up the file blocks' address runs.
// entries is positional there (dataSlots long, Kind 0 = empty slot).
// A barrier commits the segment in place — the summary block is
// rewritten with the entries so far and the segment stays open;
// committed is how many slots the summary on disk covers.
//
// A simulated partition carries no bytes and is never committed: vec
// is nil, every block appends at the front, entries grows by append.
type segBuf struct {
	seg       int
	entries   []sumEntry
	vec       [][]byte // real: SegBlocks per-block segments
	used      int      // front slots filled (slot i lives at segment block 1+i)
	back      int      // real: slots filled from the far end (the j-th is slot dataSlots-1-j)
	done      int      // front slots already written through to the device
	backDone  int      // back slots already written through
	sums      []uint32 // per-slot checksums, captured at device-write time
	committed int      // slots covered by the summary on disk (0: none written)
}

// filled counts the slots taken from either end.
func (s *segBuf) filled() int { return s.used + s.back }

// LFS is the segmented log-structured layout.
type LFS struct {
	name string
	k    sched.Kernel
	part *layout.Partition
	cfg  Config
	mu   sched.Mutex

	// Format version and geometry (from the superblock).
	format    diskFormat
	cpSize    int64
	seg0      int64
	nsegs     int
	dataSlots int // per segment

	seq       uint64
	cpNext    int // which checkpoint region to write next
	nextIno   core.FileID
	imap      map[core.FileID]*imapEnt
	imapAddr  []int64 // chunk index → log address (-1 unwritten)
	imapDirty map[int]bool

	sut      []segInfo
	freeSegs []int // FIFO of free segment indexes
	cur      *segBuf

	// In-memory mirrors (authoritative during a run; rebuilt from
	// disk on a real mount). summaries holds a segment's entries only
	// where the disk cannot supply them: every segment of a simulated
	// partition, and real segments roll-forward trimmed at a torn tail.
	inodes        map[core.FileID]*layout.Inode
	dirtyInodes   map[core.FileID]bool
	summaries     map[int][]sumEntry
	inodeBlockIDs map[int64][]core.FileID // inode-block addr → packed ids
	pending       map[int64][]byte        // unflushed log addr → bytes (real)

	cleaner  CleanerPolicy
	views    []SegState // segViews scratch
	cleaning bool
	mounted  bool

	// clusterRun caps multi-block read transfers (segment writes are
	// clustered by construction); <= 1 keeps one-block requests.
	clusterRun int

	segsWritten *stats.Counter
	partialSegs *stats.Counter
	segsCleaned *stats.Counter
	liveCopied  *stats.Counter
	blocksOut   *stats.Counter
	staged      *stats.Counter // data bytes memcpy'd into the open segment
	cleanerUtil *stats.Moments
}

// New builds an LFS over part. Call Format (fresh partition) or
// Mount (existing) before use.
func New(k sched.Kernel, name string, part *layout.Partition, cfg Config) *LFS {
	if cfg.SegBlocks < 8 {
		cfg.SegBlocks = DefaultConfig().SegBlocks
	}
	if cfg.MinFreeSegs <= 0 {
		cfg.MinFreeSegs = 4
	}
	if cfg.CleanTargetSegs <= cfg.MinFreeSegs {
		cfg.CleanTargetSegs = cfg.MinFreeSegs + 4
	}
	if cfg.MaxInodes <= 0 {
		cfg.MaxInodes = 1 << 16
	}
	cl, ok := NewCleanerPolicy(cfg.Cleaner)
	if !ok {
		panic(fmt.Sprintf("lfs: unknown cleaner policy %q", cfg.Cleaner))
	}
	return &LFS{
		name:          name,
		k:             k,
		part:          part,
		cfg:           cfg,
		mu:            k.NewMutex(name + ".lfs"),
		imap:          make(map[core.FileID]*imapEnt),
		imapDirty:     make(map[int]bool),
		inodes:        make(map[core.FileID]*layout.Inode),
		dirtyInodes:   make(map[core.FileID]bool),
		summaries:     make(map[int][]sumEntry),
		inodeBlockIDs: make(map[int64][]core.FileID),
		pending:       make(map[int64][]byte),
		cleaner:       cl,
		segsWritten:   stats.NewCounter(name + ".segs_written"),
		partialSegs:   stats.NewCounter(name + ".partial_segs"),
		segsCleaned:   stats.NewCounter(name + ".segs_cleaned"),
		liveCopied:    stats.NewCounter(name + ".live_blocks_copied"),
		blocksOut:     stats.NewCounter(name + ".log_blocks_written"),
		staged:        stats.NewCounter(name + ".staged_copy_bytes"),
		cleanerUtil:   stats.NewMoments(name + ".cleaned_utilization"),
	}
}

// Name returns "lfs".
func (l *LFS) Name() string { return "lfs" }

// SetClusterRun sets the run-size cap. The log's writes are already
// segment-sized; the cap governs the read side (ReadRunVec run
// discovery, roll-forward segment reads).
func (l *LFS) SetClusterRun(n int) {
	if n < 1 {
		n = 1
	}
	l.clusterRun = n
}

// ClusterRun returns the run-size cap, at least 1.
func (l *LFS) ClusterRun() int {
	if l.clusterRun < 1 {
		return 1
	}
	return l.clusterRun
}

// StagedCopyBytes counts the data bytes copied into owned segment
// slots (partial blocks, slots materialized after a failed write).
func (l *LFS) StagedCopyBytes() int64 { return l.staged.Value() }

// geometry is the reserved-area layout of a volume.
type geometry struct {
	cpSize int64 // blocks per checkpoint region
	seg0   int64 // first block of segment 0
	nsegs  int
	chunks int // inode-map chunks
}

// planGeometry lays out a partition of blocks blocks for segments of
// segBlocks blocks and maxInodes inodes, or says why it cannot.
func planGeometry(blocks int64, segBlocks, maxInodes int) (geometry, error) {
	var g geometry
	if segBlocks < 8 || segBlocks-1 > maxSumEntries {
		return g, fmt.Errorf("SegBlocks %d outside [8, %d] (one summary block holds %d entries)",
			segBlocks, maxSumEntries+1, maxSumEntries)
	}
	if maxInodes < 1 {
		return g, fmt.Errorf("MaxInodes %d < 1", maxInodes)
	}
	if g.chunks = (maxInodes + imapPerChunk - 1) / imapPerChunk; g.chunks > maxImapChunks {
		return g, fmt.Errorf("MaxInodes %d needs %d imap chunks, checkpoint holds %d",
			maxInodes, g.chunks, maxImapChunks)
	}
	sb := int64(1)
	// Fixpoint on checkpoint size (depends on nsegs).
	nsegs := (blocks - sb) / int64(segBlocks)
	for i := 0; i < 3; i++ {
		sutBlocks := (nsegs*sutEntSize + core.BlockSize - 1) / core.BlockSize
		g.cpSize = 1 + sutBlocks
		g.seg0 = sb + 2*g.cpSize
		nsegs = (blocks - g.seg0) / int64(segBlocks)
	}
	if nsegs < 1 {
		return g, fmt.Errorf("partition of %d blocks holds no %d-block segment", blocks, segBlocks)
	}
	g.nsegs = int(nsegs)
	return g, nil
}

// setGeometry adopts g and resets the inode-map chunk table.
func (l *LFS) setGeometry(g geometry) {
	l.cpSize, l.seg0, l.nsegs = g.cpSize, g.seg0, g.nsegs
	l.dataSlots = l.cfg.SegBlocks - 1
	l.imapAddr = make([]int64, g.chunks)
	for i := range l.imapAddr {
		l.imapAddr[i] = -1
	}
}

// Format initializes an empty log on the partition.
func (l *LFS) Format(t sched.Task) error {
	l.mu.Lock(t)
	defer l.mu.Unlock(t)
	g, err := planGeometry(l.part.Blocks, l.cfg.SegBlocks, l.cfg.MaxInodes)
	if err != nil {
		panic(fmt.Sprintf("lfs %s: %v", l.name, err))
	}
	if g.nsegs < l.cfg.CleanTargetSegs+2 {
		panic(fmt.Sprintf("lfs %s: partition of %d blocks too small for %d-block segments",
			l.name, l.part.Blocks, l.cfg.SegBlocks))
	}
	l.setGeometry(g)
	l.format = formatV2
	l.sut = make([]segInfo, l.nsegs)
	l.freeSegs = l.freeSegs[:0]
	for i := 0; i < l.nsegs; i++ {
		l.freeSegs = append(l.freeSegs, i)
	}
	l.seq = 1
	l.nextIno = core.RootFile
	l.cur = nil
	if err := l.writeSuper(t); err != nil {
		return err
	}
	return l.checkpointLocked(t)
}

// Mount loads the most recent checkpoint. Simulated partitions may
// call Mount right after Format; real partitions may Mount a volume
// written by an earlier incarnation.
func (l *LFS) Mount(t sched.Task) error {
	l.mu.Lock(t)
	defer l.mu.Unlock(t)
	if l.part.Simulated {
		if l.sut == nil {
			return fmt.Errorf("lfs %s: simulated mount requires Format first", l.name)
		}
		l.mounted = true
		return nil
	}
	if err := l.readSuper(t); err != nil {
		return err
	}
	if err := l.readCheckpoint(t); err != nil {
		return err
	}
	l.mounted = true
	return nil
}

// FreeBlocks reports allocatable capacity: free segments plus the
// open segment's remaining slots.
func (l *LFS) FreeBlocks() int64 {
	// On the real kernel a StatFS-driven call races the log head
	// moving under l.mu; the cooperative virtual kernel cannot.
	if !l.k.Virtual() {
		l.mu.Lock(nil)
		defer l.mu.Unlock(nil)
	}
	free := int64(len(l.freeSegs)) * int64(l.dataSlots)
	if l.cur != nil {
		free += int64(l.dataSlots - l.cur.filled())
	}
	return free
}

// Stats registers the layout's statistics plug-ins.
func (l *LFS) Stats(set *stats.Set) {
	set.Add(l.segsWritten)
	set.Add(l.partialSegs)
	set.Add(l.segsCleaned)
	set.Add(l.liveCopied)
	set.Add(l.blocksOut)
	set.Add(l.staged)
	set.Add(l.cleanerUtil)
}

// LogStats are the log's own counters, for telemetry: they are atomic
// (the Moments takes a plain mutex), so a scrape may read them without
// the kernel. log_blocks_written over the cache's flushed blocks is
// the log's write amplification; partial_segs and segs_cleaned per
// flush job say whether barriers are burning segments.
type LogStats struct {
	SegsWritten        *stats.Counter
	PartialSegs        *stats.Counter
	SegsCleaned        *stats.Counter
	LiveBlocksCopied   *stats.Counter
	LogBlocksWritten   *stats.Counter
	CleanedUtilization *stats.Moments
}

// LogStats returns the log's counters.
func (l *LFS) LogStats() LogStats {
	return LogStats{
		SegsWritten:        l.segsWritten,
		PartialSegs:        l.partialSegs,
		SegsCleaned:        l.segsCleaned,
		LiveBlocksCopied:   l.liveCopied,
		LogBlocksWritten:   l.blocksOut,
		CleanedUtilization: l.cleanerUtil,
	}
}

// segStart returns the first block (the summary) of segment s.
func (l *LFS) segStart(s int) int64 {
	return l.seg0 + int64(s)*int64(l.cfg.SegBlocks)
}

// segOf maps a log address to its segment index.
func (l *LFS) segOf(addr int64) int {
	return int((addr - l.seg0) / int64(l.cfg.SegBlocks))
}

func (l *LFS) String() string {
	return fmt.Sprintf("lfs %s: %d segments × %d blocks, cleaner=%s",
		l.name, l.nsegs, l.cfg.SegBlocks, l.cleaner.Name())
}
