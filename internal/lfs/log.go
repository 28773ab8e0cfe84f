package lfs

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/sched"
)

// appendBlock reserves the next front slot of the open segment for one
// block (data, an inode-map chunk, a cleaner copy), staging data in
// the open segment (real mode) and recording the summary entry. It
// returns the block's new address. Full segments are written out and
// a fresh one opened; the caller must hold l.mu.
func (l *LFS) appendBlock(t sched.Task, kind uint8, file core.FileID, blk int64, data []byte) (int64, error) {
	if l.cur != nil && l.cur.filled() >= l.dataSlots {
		if err := l.writeCurSegment(t, false); err != nil {
			return -1, err
		}
	}
	if l.cur == nil {
		if err := l.openSegment(t); err != nil {
			return -1, err
		}
	}
	s := l.cur
	slot := s.used
	addr := l.segStart(s.seg) + 1 + int64(slot)
	if s.vec != nil {
		if kind == kindData && len(data) == core.BlockSize {
			// Zero-copy: the slot aliases the appender's block — a
			// Flushing-stable cache frame or the cleaner's immutable
			// victim read. A frame alias must not outlive its flush
			// job (a front-end rewrite of the block mutates the frame
			// the moment the job's Flushing window closes), so
			// WriteBlocks drains its slots to the device before
			// returning (writeThrough). Metadata kinds never alias:
			// their appenders reuse one scratch buffer across blocks.
			s.vec[1+slot] = data
			l.pending[addr] = data
		} else {
			dst := make([]byte, core.BlockSize)
			copy(dst, data)
			s.vec[1+slot] = dst
			l.pending[addr] = dst
			if kind == kindData {
				l.staged.Add(int64(len(data)))
			}
		}
	} else if l.part.Mover != nil {
		// Simulated: charge the memory-copy cost of staging the
		// block into the segment buffer.
		t.Sleep(timeNS(l.part.Mover.CopyCost(core.BlockSize)))
	}
	s.used++
	l.noteSlot(s, slot, sumEntry{Kind: kind, File: file, Blk: blk})
	return addr, nil
}

// noteSlot records the summary entry of a slot just taken and charges
// the block to the usage table.
func (l *LFS) noteSlot(s *segBuf, slot int, e sumEntry) {
	if s.vec != nil {
		s.entries[slot] = e
	} else {
		s.entries = append(s.entries, e)
	}
	l.sut[s.seg].live++
	l.blocksOut.Inc()
}

// openSegment takes the next free segment as the log head, cleaning
// first if free space has run low.
func (l *LFS) openSegment(t sched.Task) error {
	if len(l.freeSegs) <= minFreeSegs {
		if err := l.cleanLocked(t); err != nil {
			return err
		}
	}
	if len(l.freeSegs) == 0 {
		return core.ErrNoSpace
	}
	seg := l.freeSegs[0]
	l.freeSegs = l.freeSegs[1:]
	sb := &segBuf{seg: seg}
	if !l.part.Simulated {
		sb.vec = make([][]byte, l.cfg.SegBlocks)
		sb.vec[0] = make([]byte, core.BlockSize) // owned summary block
		sb.sums = make([]uint32, l.dataSlots)
		sb.entries = make([]sumEntry, l.dataSlots)
	}
	l.sut[seg] = segInfo{live: 0, seq: uint32(l.seq), state: segCurrent}
	l.cur = sb
	return nil
}

// writeCurSegment packs dirty inodes (as many as fit), writes the
// open segment to disk — one sequential I/O when simulated; whatever
// has not been written through yet, then the summary, when real — and
// closes it. With sync set, every dirty inode is packed, spilling
// into further segments until none remain.
func (l *LFS) writeCurSegment(t sched.Task, sync bool) error {
	if l.cur == nil && len(l.dirtyInodes) == 0 {
		return nil
	}
	for {
		if l.cur == nil {
			if err := l.openSegment(t); err != nil {
				return err
			}
		}
		l.packInodes(t)
		if err := l.flushSegBuf(t); err != nil {
			return err
		}
		if !sync || len(l.dirtyInodes) == 0 {
			return nil
		}
	}
}

// commitCurSegment is the write barrier: everything staged and every
// dirty inode record reaches the disk, and the segment stays open.
// The summary block is rewritten in place with the entries so far —
// it only ever grows, so a torn rewrite leaves every entry an earlier
// barrier acknowledged byte-identical and the new ones failing their
// checksums, which is a torn tail to roll-forward. A segment that is
// full, or has no room for the inode records, is closed the classic
// way and the barrier continues in a fresh one. Simulated partitions
// (which the barrier never reaches in the experiments) have no
// summary block to rewrite and close the segment.
func (l *LFS) commitCurSegment(t sched.Task) error {
	if l.part.Simulated {
		return l.writeCurSegment(t, true)
	}
	for {
		if l.cur == nil {
			if len(l.dirtyInodes) == 0 {
				return nil
			}
			if err := l.openSegment(t); err != nil {
				return err
			}
		}
		l.packInodes(t)
		s := l.cur
		if len(l.dirtyInodes) > 0 || s.filled() >= l.dataSlots {
			if err := l.flushSegBuf(t); err != nil {
				return err
			}
			if len(l.dirtyInodes) == 0 {
				return nil
			}
			continue
		}
		if err := l.writeThrough(t); err != nil {
			return err
		}
		if s.filled() == s.committed {
			return nil // nothing appended since the last commit
		}
		return l.writeSummary(t, s)
	}
}

// writeSummary puts the open segment's summary block on disk, after
// the slots it describes (data before summary: a cut between the two
// reads as a torn tail). The summary carries l.seq, the sequence the
// usage table records when the segment retires; roll-forward dates
// segments by it, so l.seq must not move while a committed segment
// is open (checkpointLocked asserts that).
func (l *LFS) writeSummary(t sched.Task, s *segBuf) error {
	l.encodeSummary(s, l.seq)
	if err := l.part.Write(t, l.segStart(s.seg), 1, s.vec[0]); err != nil {
		return err
	}
	s.committed = s.filled()
	return nil
}

// packInodes serializes dirty inodes (and their indirect map blocks)
// into the open segment until the segment fills or no dirty inodes
// remain. Inodes are packed InodesPerBlk to a block; the inode map
// is updated to the new locations.
func (l *LFS) packInodes(t sched.Task) {
	ids := make([]core.FileID, 0, len(l.dirtyInodes))
	for id := range l.dirtyInodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	var batch []core.FileID
	flushBatch := func() {
		if len(batch) == 0 {
			return
		}
		buf := make([]byte, core.BlockSize)
		addr, err := l.appendBlockNoRefill(kindInode, batch[0], 0, nil)
		if err != nil {
			return
		}
		blkIDs := append([]core.FileID(nil), batch...)
		oldAddrs := map[int64]bool{}
		for i, id := range blkIDs {
			ino := l.inodes[id]
			if l.cur.vec != nil {
				di := l.toDiskInode(ino)
				layout.EncodeInode(di, buf[i*layout.InodeSize:])
			}
			ent := l.imap[id]
			if ent.addr >= 0 && ent.addr != addr {
				oldAddrs[ent.addr] = true
			}
			ent.addr = addr
			ent.slot = uint8(i)
			l.imapDirty[int(id)/imapPerChunk] = true
			delete(l.dirtyInodes, id)
		}
		if l.cur.vec != nil {
			copy(l.pending[addr], buf)
		}
		l.inodeBlockIDs[addr] = blkIDs
		// Previous homes of these inodes may now be fully dead.
		for old := range oldAddrs {
			l.noteInodeSlotDead(old)
		}
		batch = batch[:0]
	}

	for _, id := range ids {
		ino := l.inodes[id]
		if ino == nil {
			delete(l.dirtyInodes, id)
			continue
		}
		need := l.indirectBlocksNeeded(ino)
		// need slots for indirects plus one (shared) inode block —
		// reserved whether the batch is empty or already open.
		if l.cur.filled()+need+1 > l.dataSlots {
			break // no room; stays dirty for the next segment
		}
		if need > 0 {
			if err := l.writeIndirects(t, ino); err != nil {
				break
			}
		}
		batch = append(batch, id)
		if len(batch) == layout.InodesPerBlk {
			flushBatch()
		}
		if l.cur.filled() >= l.dataSlots {
			break
		}
	}
	flushBatch()
}

// appendBlockNoRefill reserves a slot for an inode or indirect block
// without appendBlock's write-and-reopen path: packInodes guarantees
// room before calling. On a real partition these blocks fill the
// segment from its far end (see segBuf), so the metadata a barrier
// adds after every flush job does not interleave with file data.
func (l *LFS) appendBlockNoRefill(kind uint8, file core.FileID, blk int64, data []byte) (int64, error) {
	if l.cur == nil || l.cur.filled() >= l.dataSlots {
		return -1, fmt.Errorf("lfs %s: internal: no room reserved for metadata block", l.name)
	}
	s := l.cur
	slot := s.used
	if s.vec != nil {
		slot = l.dataSlots - 1 - s.back
	}
	addr := l.segStart(s.seg) + 1 + int64(slot)
	if s.vec != nil {
		// Metadata blocks always get an owned copy: the callers
		// (packInodes, writeIndirects) reuse one scratch buffer across
		// blocks and write into l.pending[addr] after the append.
		dst := make([]byte, core.BlockSize)
		copy(dst, data)
		s.vec[1+slot] = dst
		l.pending[addr] = dst
		s.back++
	} else {
		s.used++
	}
	l.noteSlot(s, slot, sumEntry{Kind: kind, File: file, Blk: blk})
	return addr, nil
}

// indirectBlocksNeeded counts the map blocks a file's inode needs.
func (l *LFS) indirectBlocksNeeded(ino *layout.Inode) int {
	if len(ino.Blocks) <= layout.NDirect {
		return 0
	}
	_, groups, err := layout.SplitBlockMap(ino.Blocks)
	if err != nil {
		return 0
	}
	n := len(groups)
	if n > 1 {
		n++ // the double-indirect root
	}
	return n
}

// writeIndirects appends the file's indirect map blocks to the log
// and records their addresses in the inode. Old indirect blocks die.
func (l *LFS) writeIndirects(t sched.Task, ino *layout.Inode) error {
	for _, a := range ino.IndAddrs {
		l.deadBlock(a)
	}
	ino.IndAddrs = ino.IndAddrs[:0]
	_, groups, err := layout.SplitBlockMap(ino.Blocks)
	if err != nil {
		return err
	}
	if len(groups) == 0 {
		return nil
	}
	var buf []byte
	if !l.part.Simulated {
		buf = make([]byte, core.BlockSize)
	}
	leafAddrs := make([]int64, 0, len(groups))
	for gi, g := range groups {
		if buf != nil {
			layout.EncodeAddrs(g, buf)
		}
		addr, err := l.appendBlockNoRefill(kindIndirect, ino.ID, int64(gi), buf)
		if err != nil {
			return err
		}
		leafAddrs = append(leafAddrs, addr)
		ino.IndAddrs = append(ino.IndAddrs, addr)
	}
	if len(groups) > 1 {
		// Double-indirect root: addresses of leaves 1..n (leaf 0 is
		// the single-indirect block reachable from the inode).
		if buf != nil {
			layout.EncodeAddrs(leafAddrs[1:], buf)
		}
		addr, err := l.appendBlockNoRefill(kindIndirect, ino.ID, -1, buf)
		if err != nil {
			return err
		}
		ino.IndAddrs = append(ino.IndAddrs, addr)
	}
	return nil
}

// writeThrough pushes the open segment's not-yet-written slots to
// the device, one scatter-gather request per end of the segment.
// Cache-frame aliases are only stable while their flush job holds the
// blocks Flushing (BeginWrite waits on that window), so every
// WriteBlocks drains its slots here before returning: the frame's
// bytes — and the checksum the summary will carry for them — are read
// inside the stable window, never after it. Caller holds l.mu.
func (l *LFS) writeThrough(t sched.Task) error {
	s := l.cur
	if s == nil || s.vec == nil {
		return nil
	}
	if err := l.writeSlots(t, s, s.done, s.used); err != nil {
		return err
	}
	s.done = s.used
	if err := l.writeSlots(t, s, l.dataSlots-s.back, l.dataSlots-s.backDone); err != nil {
		return err
	}
	s.backDone = s.back
	return nil
}

// writeSlots writes slots [lo, hi) of the open segment as one request,
// capturing their checksums (the volume format's sum) from the bytes
// the device is given.
func (l *LFS) writeSlots(t sched.Task, s *segBuf, lo, hi int) error {
	if lo >= hi {
		return nil
	}
	for i := lo; i < hi; i++ {
		s.sums[i] = l.format.sum(s.vec[1+i])
	}
	base := l.segStart(s.seg) + 1
	if err := l.part.WriteVec(t, base+int64(lo), hi-lo, s.vec[1+lo:1+hi]); err != nil {
		// The slots stay staged for a retry, but the job's Flushing
		// window closes when this error surfaces — clients may then
		// rewrite the frames, so the staged slots must own their
		// bytes from here on.
		l.materializeCur()
		return err
	}
	// The bytes are on the media: drop the aliases (the frames may
	// be rewritten freely now) and serve readers from the device.
	for i := lo; i < hi; i++ {
		delete(l.pending, base+int64(i))
		s.vec[1+i] = nil
	}
	return nil
}

// materializeCur replaces every not-yet-written-through front slot of
// the open segment with an owned copy of its bytes (back slots hold
// metadata, which never aliases). Slots alias
// cache frames, and those aliases are only safe inside the flush
// job's Flushing window — when an error aborts the job before
// writeThrough drains the slots, the window closes with the slots
// still staged, and the retry (or the next job's writeThrough) must
// read the bytes the job appended, not whatever the frames hold by
// then. The copies count as staged bytes, paid only on failed
// writes. Caller holds l.mu.
func (l *LFS) materializeCur() {
	s := l.cur
	if s == nil || s.vec == nil {
		return
	}
	base := l.segStart(s.seg) + 1
	for i := s.done; i < s.used; i++ {
		src := s.vec[1+i]
		if src == nil {
			continue
		}
		cp := make([]byte, len(src))
		copy(cp, src)
		l.staged.Add(int64(len(cp)))
		s.vec[1+i] = cp
		if _, ok := l.pending[base+int64(i)]; ok {
			l.pending[base+int64(i)] = cp
		}
	}
}

// flushSegBuf writes what the open segment still owes the device —
// slots not yet written through, then the summary unless the last
// commit already covers every slot — and retires it.
func (l *LFS) flushSegBuf(t sched.Task) error {
	s := l.cur
	if s == nil {
		return nil
	}
	if s.filled() == 0 {
		// Nothing written: return the segment to the free pool.
		l.sut[s.seg] = segInfo{state: segFree}
		l.freeSegs = append(l.freeSegs, s.seg)
		l.cur = nil
		return nil
	}
	if s.vec != nil {
		if err := l.writeThrough(t); err != nil {
			return err
		}
		if s.committed < s.filled() {
			if err := l.writeSummary(t, s); err != nil {
				return err
			}
		}
	} else {
		// Simulated: one sequential I/O for the whole segment. The
		// in-memory summary is the only copy there is.
		if err := l.part.Write(t, l.segStart(s.seg), 1+s.used, nil); err != nil {
			return err
		}
		l.summaries[s.seg] = s.entries
	}
	l.sut[s.seg].state = segInUse
	l.sut[s.seg].seq = uint32(l.seq)
	l.seq++
	l.segsWritten.Inc()
	if s.filled() < l.dataSlots {
		l.partialSegs.Inc()
	}
	l.cur = nil
	return nil
}

// deadBlock marks a previously live log block dead in the usage
// table.
func (l *LFS) deadBlock(addr int64) {
	if addr < l.seg0 {
		return
	}
	seg := l.segOf(addr)
	if seg < 0 || seg >= l.nsegs {
		return
	}
	if l.sut[seg].live > 0 {
		l.sut[seg].live--
	}
}
