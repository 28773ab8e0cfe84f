package lfs

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"

	"repro/internal/core"
	"repro/internal/sched"
)

const (
	cpMagic = 0x4C465343 // "LFSC"

	cpHeaderSize = 64
	// imap entries are 16 bytes: addr+1 (8), version (4), slot (1),
	// pad (3); 256 per 4 KB chunk.
	imapEntSize  = 16
	imapPerChunk = core.BlockSize / imapEntSize
	// SUT entries are 16 bytes: live (4), seq (4), state (1), pad.
	sutEntSize = 16
	// Summary entries are 24 bytes: kind (1), pad (3), data
	// checksum (4), file (8), blk (8).
	sumEntSize = 24
	// Summary header: magic (4), count (4), log seq (8). The magic is
	// the volume's superblock magic. The count word holds the front
	// slot count in its low half and the back count in its high half
	// (zero in images written before segments filled from both ends);
	// entry i describes slot i. The seq dates the segment against the
	// checkpoints; roll-forward replays only segments newer than the
	// one it mounted from.
	sumHeaderSize = 16
	// maxSumEntries is how many slots one summary block describes.
	maxSumEntries = (core.BlockSize - sumHeaderSize) / sumEntSize
	// maxImapChunks is how many chunk addresses a checkpoint header holds.
	maxImapChunks = (core.BlockSize - cpHeaderSize) / 8
)

// A diskFormat is an on-disk version: the magic its superblock and every
// segment summary carry, and the checksum recovery uses to detect
// torn writes (each summary entry checksums its slot's bytes, the
// checkpoint header checksums its whole region). A volume keeps the
// version it was formatted with for its whole life.
type diskFormat struct {
	magic uint32
	sum   func([]byte) uint32
}

var (
	// v1 volumes sum with a byte-serial FNV-1a.
	formatV1 = diskFormat{magic: 0x4C465331, sum: fnv1a} // "LFS1"
	// v2 volumes sum with CRC32C, which runs on SSE4.2 where present.
	formatV2 = diskFormat{magic: 0x4C465332, sum: crc32c} // "LFS2"
)

// castagnoli is built once: crc32.Checksum takes the hardware path
// only for the package's own Castagnoli table.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func crc32c(data []byte) uint32 { return crc32.Checksum(data, castagnoli) }

// fnv1a is the v1 checksum, kept only to verify and extend v1 volumes.
func fnv1a(data []byte) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for _, b := range data {
		h ^= uint32(b)
		h *= prime32
	}
	return h
}

// writeSuper writes the superblock (block 0): the version's magic,
// then the geometry.
func (l *LFS) writeSuper(t sched.Task) error {
	var buf []byte
	if !l.part.Simulated {
		buf = make([]byte, core.BlockSize)
		le := binary.LittleEndian
		le.PutUint32(buf[0:], l.format.magic)
		le.PutUint32(buf[4:], uint32(l.cfg.SegBlocks))
		le.PutUint64(buf[8:], uint64(l.nsegs))
		le.PutUint64(buf[16:], uint64(l.cpSize))
		le.PutUint64(buf[24:], uint64(l.seg0))
		le.PutUint64(buf[32:], uint64(l.cfg.MaxInodes))
	}
	return l.part.Write(t, 0, 1, buf)
}

// readSuper loads the format version and geometry from the
// superblock. Nothing on disk is trusted: the geometry must be the one
// Format would give this partition, so a damaged superblock is an
// error here rather than a bad slice bound or a huge allocation later.
func (l *LFS) readSuper(t sched.Task) error {
	buf := make([]byte, core.BlockSize)
	if err := l.part.Read(t, 0, 1, buf); err != nil {
		return err
	}
	le := binary.LittleEndian
	switch magic := le.Uint32(buf[0:]); magic {
	case formatV1.magic:
		l.format = formatV1
	case formatV2.magic:
		l.format = formatV2
	default:
		return fmt.Errorf("lfs %s: bad superblock magic %#x", l.name, magic)
	}
	segBlocks := le.Uint32(buf[4:])
	maxInodes := le.Uint64(buf[32:])
	if maxInodes > maxImapChunks*imapPerChunk {
		return fmt.Errorf("lfs %s: superblock MaxInodes %d exceeds the checkpoint's %d", l.name, maxInodes, maxImapChunks*imapPerChunk)
	}
	g, err := planGeometry(l.part.Blocks, int(segBlocks), int(maxInodes))
	if err != nil {
		return fmt.Errorf("lfs %s: superblock: %v", l.name, err)
	}
	if got := [3]uint64{le.Uint64(buf[8:]), le.Uint64(buf[16:]), le.Uint64(buf[24:])}; got != [3]uint64{uint64(g.nsegs), uint64(g.cpSize), uint64(g.seg0)} {
		return fmt.Errorf("lfs %s: superblock geometry (segments, checkpoint, seg0) = %v, a %d-block partition gives (%d %d %d)",
			l.name, got, l.part.Blocks, g.nsegs, g.cpSize, g.seg0)
	}
	l.cfg.SegBlocks, l.cfg.MaxInodes = int(segBlocks), int(maxInodes)
	l.setGeometry(g)
	return nil
}

// cpBase returns the first block of checkpoint region r (0 or 1).
func (l *LFS) cpBase(r int) int64 { return 1 + int64(r)*l.cpSize }

// checkpointLocked flushes dirty imap chunks into the log and writes
// a checkpoint region: header (seq, next inode, imap chunk table)
// followed by the segment usage table. Regions alternate so a crash
// during the write leaves the previous checkpoint intact.
func (l *LFS) checkpointLocked(t sched.Task) error {
	// 1. Dirty imap chunks go into the log.
	if len(l.imapDirty) > 0 {
		chunks := l.chunks[:0]
		for c := range l.imapDirty {
			chunks = append(chunks, c)
		}
		slices.Sort(chunks)
		l.chunks = chunks
		for _, c := range chunks {
			var buf []byte
			if !l.part.Simulated {
				buf = l.takeBlock()
				l.encodeImapChunk(c, buf)
			}
			if old := l.imapAddr[c]; old >= 0 {
				l.deadBlock(old)
			}
			addr, err := l.appendBlock(t, kindImap, 0, int64(c), buf, true)
			if err != nil {
				return err
			}
			l.imapAddr[c] = addr
		}
		clear(l.imapDirty)
		// The chunks must be on disk before the checkpoint points
		// at them.
		if err := l.flushSegBuf(t); err != nil {
			return err
		}
	}

	// A committed open segment carries l.seq in its summary: a
	// checkpoint under the same sequence would date the segment's
	// blocks as already covered, and roll-forward would skip them.
	// Every caller closes the segment first.
	if l.cur != nil && l.cur.committed > 0 {
		panic(fmt.Sprintf("lfs %s: checkpoint with committed segment %d still open", l.name, l.cur.seg))
	}

	// 2. Header + SUT into the alternate region. The header carries a
	// checksum over the whole region (computed with the field zeroed)
	// so a torn checkpoint write is detected at mount and the intact
	// sibling region wins — a crash mid-checkpoint never leaves the
	// volume without a valid checkpoint.
	region := l.cpNext
	l.cpNext ^= 1
	var data []byte
	if !l.part.Simulated {
		// Partition.Write is synchronous, so one region buffer serves
		// every checkpoint; cleared, as the checksum covers it all.
		if n := l.cpSize * core.BlockSize; int64(len(l.cpBuf)) != n {
			l.cpBuf = make([]byte, n)
		}
		data = l.cpBuf
		clear(data)
		le := binary.LittleEndian
		le.PutUint32(data[0:], cpMagic)
		le.PutUint64(data[8:], l.seq)
		le.PutUint64(data[16:], uint64(l.nextIno))
		le.PutUint32(data[24:], uint32(len(l.imapAddr)))
		off := cpHeaderSize
		for _, a := range l.imapAddr {
			le.PutUint64(data[off:], uint64(a+1))
			off += 8
		}
		sutOff := core.BlockSize
		for i, s := range l.sut {
			o := sutOff + i*sutEntSize
			le.PutUint32(data[o:], uint32(s.live))
			le.PutUint32(data[o+4:], s.seq)
			data[o+8] = s.state
		}
		le.PutUint32(data[4:], l.format.sum(data))
	}
	if err := l.part.Write(t, l.cpBase(region), int(l.cpSize), data); err != nil {
		return err
	}
	l.seq++
	return nil
}

// readCheckpoint loads the newer of the two checkpoint regions and
// rebuilds the inode map and usage table.
func (l *LFS) readCheckpoint(t sched.Task) error {
	best := -1
	var bestSeq uint64
	var bestData []byte
	for r := 0; r < 2; r++ {
		data := make([]byte, l.cpSize*core.BlockSize)
		if err := l.part.Read(t, l.cpBase(r), int(l.cpSize), data); err != nil {
			continue
		}
		le := binary.LittleEndian
		if le.Uint32(data[0:]) != cpMagic {
			continue
		}
		// A torn region (power cut mid-checkpoint) fails its checksum
		// and is ignored; the alternate region is always intact.
		want := le.Uint32(data[4:])
		le.PutUint32(data[4:], 0)
		if l.format.sum(data) != want {
			continue
		}
		le.PutUint32(data[4:], want)
		if seq := le.Uint64(data[8:]); best < 0 || seq > bestSeq {
			best, bestSeq, bestData = r, seq, data
		}
	}
	if best < 0 {
		return fmt.Errorf("lfs %s: no valid checkpoint", l.name)
	}
	le := binary.LittleEndian
	l.seq = bestSeq + 1
	l.cpNext = best ^ 1
	l.nextIno = core.FileID(le.Uint64(bestData[16:]))
	nchunks := int(le.Uint32(bestData[24:]))
	if nchunks > len(l.imapAddr) {
		nchunks = len(l.imapAddr)
	}
	off := cpHeaderSize
	for i := 0; i < nchunks; i++ {
		l.imapAddr[i] = int64(le.Uint64(bestData[off:])) - 1
		off += 8
	}
	// Usage table.
	l.sut = make([]segInfo, l.nsegs)
	l.freeSegs = l.freeSegs[:0]
	sutOff := core.BlockSize
	for i := range l.sut {
		o := sutOff + i*sutEntSize
		l.sut[i] = segInfo{
			live:  int32(le.Uint32(bestData[o:])),
			seq:   le.Uint32(bestData[o+4:]),
			state: bestData[o+8],
		}
		if l.sut[i].state == segFree || l.sut[i].state == segCurrent {
			// A segment open at checkpoint time was lost with the
			// crash; its blocks were not yet referenced.
			l.sut[i] = segInfo{state: segFree}
			l.freeSegs = append(l.freeSegs, i)
		}
	}
	// Inode map chunks.
	l.imap = make(map[core.FileID]*imapEnt)
	buf := make([]byte, core.BlockSize)
	for c, addr := range l.imapAddr {
		if addr < 0 {
			continue
		}
		if err := l.part.Read(t, addr, 1, buf); err != nil {
			return err
		}
		l.decodeImapChunk(c, buf)
	}
	// Which inodes share which inode block — what tells the cleaner
	// and FreeInode when such a block is dead — follows from the map.
	l.inodeBlockIDs = make(map[int64][]core.FileID)
	for id, ent := range l.imap {
		if ent.addr >= 0 {
			l.inodeBlockIDs[ent.addr] = append(l.inodeBlockIDs[ent.addr], id)
		}
	}
	return nil
}

// encodeImapChunk serializes chunk c of the inode map.
func (l *LFS) encodeImapChunk(c int, buf []byte) {
	le := binary.LittleEndian
	clear(buf[:core.BlockSize])
	base := core.FileID(c * imapPerChunk)
	for i := 0; i < imapPerChunk; i++ {
		ent := l.imap[base+core.FileID(i)]
		if ent == nil {
			continue
		}
		o := i * imapEntSize
		le.PutUint64(buf[o:], uint64(ent.addr+1))
		le.PutUint32(buf[o+8:], ent.version)
		buf[o+12] = ent.slot
	}
}

// decodeImapChunk loads chunk c of the inode map.
func (l *LFS) decodeImapChunk(c int, buf []byte) {
	le := binary.LittleEndian
	base := core.FileID(c * imapPerChunk)
	for i := 0; i < imapPerChunk; i++ {
		o := i * imapEntSize
		raw := le.Uint64(buf[o:])
		version := le.Uint32(buf[o+8:])
		if raw == 0 && version == 0 {
			continue
		}
		l.imap[base+core.FileID(i)] = &imapEnt{
			addr:    int64(raw) - 1,
			version: version,
			slot:    buf[o+12],
		}
	}
}

// encodeSummary serializes the open segment's summary into its first
// block: header with the volume's format magic, the log sequence the
// segment is written under and the two slot counts, then one entry per
// slot, at the slot's position, carrying the format's checksum of the
// slot's bytes (CRC32C on v2, FNV-1a on v1) — what lets
// roll-forward date a segment against a checkpoint and stop at a torn
// tail. Entries are only ever added between two encodings of one
// segment, so each is a byte-for-byte extension of the last.
func (l *LFS) encodeSummary(s *segBuf, seq uint64) {
	buf := s.vec[0]
	le := binary.LittleEndian
	le.PutUint32(buf[0:], l.format.magic)
	le.PutUint32(buf[4:], uint32(s.used)|uint32(s.back)<<16)
	le.PutUint64(buf[8:], seq)
	put := func(i int) {
		e := s.entries[i]
		o := sumHeaderSize + i*sumEntSize
		buf[o] = e.Kind
		// The checksum was captured when the slot's bytes hit the
		// device (writeThrough) — the alias may be gone by now.
		le.PutUint32(buf[o+4:], s.sums[i])
		le.PutUint64(buf[o+8:], uint64(e.File))
		le.PutUint64(buf[o+16:], uint64(e.Blk))
	}
	for i := 0; i < s.used; i++ {
		put(i)
	}
	for i := l.dataSlots - s.back; i < l.dataSlots; i++ {
		put(i)
	}
}

// segSummary is a decoded on-disk summary: positional entries (Kind 0
// where a slot is empty) and checksums, the front and back slot
// counts, and the log sequence the segment was written under.
type segSummary struct {
	entries     []sumEntry
	sums        []uint32
	front, back int
	seq         uint64
}

// decodeSummary parses a summary block into sum, reusing its entry
// and checksum slices. A front-only summary (every image written
// before segments filled from both ends) yields exactly its front
// entries; a two-ended one yields all dataSlots positions.
func (l *LFS) decodeSummary(seg int, buf []byte, sum *segSummary) error {
	le := binary.LittleEndian
	if le.Uint32(buf[0:]) != l.format.magic {
		return fmt.Errorf("lfs %s: segment %d has no summary", l.name, seg)
	}
	count := le.Uint32(buf[4:])
	front, back := int(count&0xFFFF), int(count>>16)
	if front+back > l.dataSlots {
		return fmt.Errorf("lfs %s: summary of %d+%d entries exceeds segment", l.name, front, back)
	}
	n := front
	if back > 0 {
		n = l.dataSlots
	}
	*sum = segSummary{
		entries: slices.Grow(sum.entries[:0], n)[:n],
		sums:    slices.Grow(sum.sums[:0], n)[:n],
		front:   front, back: back, seq: le.Uint64(buf[8:]),
	}
	clear(sum.entries)
	clear(sum.sums)
	get := func(i int) {
		o := sumHeaderSize + i*sumEntSize
		sum.entries[i] = sumEntry{
			Kind: buf[o],
			File: core.FileID(le.Uint64(buf[o+8:])),
			Blk:  int64(le.Uint64(buf[o+16:])),
		}
		sum.sums[i] = le.Uint32(buf[o+4:])
	}
	for i := 0; i < front; i++ {
		get(i)
	}
	for i := l.dataSlots - back; i < l.dataSlots; i++ {
		get(i)
	}
	return nil
}

// readSummary reads and decodes a segment's summary block into fresh
// slices. Nothing is cached: roll-forward probes segments it may then
// reject.
func (l *LFS) readSummary(t sched.Task, seg int) (segSummary, error) {
	buf := make([]byte, core.BlockSize)
	if err := l.part.Read(t, l.segStart(seg), 1, buf); err != nil {
		return segSummary{}, err
	}
	var sum segSummary
	err := l.decodeSummary(seg, buf, &sum)
	return sum, err
}
