package lfs

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/sched"
)

// appendBlock reserves the next log slot for one block, staging data
// in the open segment (real mode) and recording the summary entry.
// It returns the block's new address. Full segments are written out
// and a fresh one opened; the caller must hold l.mu.
func (l *LFS) appendBlock(t sched.Task, kind uint8, file core.FileID, blk int64, data []byte) (int64, error) {
	if l.cur != nil && l.cur.used >= l.dataSlots {
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
	s.entries = append(s.entries, sumEntry{Kind: kind, File: file, Blk: blk})
	s.used++
	l.sut[s.seg].live++
	l.blocksOut.Inc()
	return addr, nil
}

// openSegment takes the next free segment as the log head, cleaning
// first if free space has run low.
func (l *LFS) openSegment(t sched.Task) error {
	if len(l.freeSegs) <= l.cfg.MinFreeSegs {
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
		sb.sums = make([]uint32, l.cfg.SegBlocks)
	}
	l.sut[seg] = segInfo{live: 0, seq: uint32(l.seq), state: segCurrent}
	l.cur = sb
	return nil
}

// writeCurSegment packs dirty inodes (as many as fit), writes the
// open segment to disk in one sequential I/O, and closes it. With
// sync set, every dirty inode is packed, spilling into further
// segments until none remain.
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
		if l.cur.used+need+1 > l.dataSlots {
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
		if l.cur.used >= l.dataSlots {
			break
		}
	}
	flushBatch()
}

// appendBlockNoRefill is appendBlock without the write-and-reopen
// path: packInodes guarantees room before calling.
func (l *LFS) appendBlockNoRefill(kind uint8, file core.FileID, blk int64, data []byte) (int64, error) {
	if l.cur == nil || l.cur.used >= l.dataSlots {
		return -1, fmt.Errorf("lfs %s: internal: no room reserved for metadata block", l.name)
	}
	s := l.cur
	slot := s.used
	addr := l.segStart(s.seg) + 1 + int64(slot)
	if s.vec != nil {
		// Metadata blocks always get an owned copy: the callers
		// (packInodes, writeIndirects) reuse one scratch buffer across
		// blocks and write into l.pending[addr] after the append.
		dst := make([]byte, core.BlockSize)
		copy(dst, data)
		s.vec[1+slot] = dst
		l.pending[addr] = dst
	}
	s.entries = append(s.entries, sumEntry{Kind: kind, File: file, Blk: blk})
	s.used++
	l.sut[s.seg].live++
	l.blocksOut.Inc()
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
// the device as one scatter-gather request. Cache-frame aliases are
// only stable while their flush job holds the blocks Flushing
// (BeginWrite waits on that window), so every WriteBlocks
// drains its slots here before returning: the frame's bytes — and
// the checksum the summary will carry for them — are read inside the
// stable window, never after it. Caller holds l.mu.
func (l *LFS) writeThrough(t sched.Task) error {
	s := l.cur
	if s == nil || s.vec == nil || s.done >= s.used {
		return nil
	}
	for i := s.done; i < s.used; i++ {
		s.sums[i] = blockSum(s.vec[1+i])
	}
	start := l.segStart(s.seg) + 1 + int64(s.done)
	if err := l.part.WriteVec(t, start, s.used-s.done, s.vec[1+s.done:1+s.used]); err != nil {
		// The slots stay staged for a retry, but the job's Flushing
		// window closes when this error surfaces — clients may then
		// rewrite the frames, so the staged slots must own their
		// bytes from here on.
		l.materializeCur()
		return err
	}
	// The bytes are on the media: drop the aliases (the frames may
	// be rewritten freely now) and serve readers from the device.
	base := l.segStart(s.seg) + 1
	for i := s.done; i < s.used; i++ {
		delete(l.pending, base+int64(i))
		s.vec[1+i] = nil
	}
	s.done = s.used
	return nil
}

// materializeCur replaces every not-yet-written-through slot of the
// open segment with an owned copy of its bytes. Slots alias
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

// flushSegBuf writes the open segment (summary + used slots) to the
// device and retires it.
func (l *LFS) flushSegBuf(t sched.Task) error {
	s := l.cur
	if s == nil {
		return nil
	}
	if s.used == 0 {
		// Nothing written: return the segment to the free pool.
		l.sut[s.seg] = segInfo{state: segFree}
		l.freeSegs = append(l.freeSegs, s.seg)
		l.cur = nil
		return nil
	}
	var err error
	if s.vec != nil {
		// Data slots went out as they were appended (writeThrough);
		// drain any remainder (inode packs, cleaner copies), then
		// commit the segment with its summary block — data before
		// summary, so a cut between the two reads as a torn tail.
		// The summary carries the seq the usage table records below:
		// roll-forward dates segments by it.
		if err = l.writeThrough(t); err == nil {
			l.encodeSummary(s, l.seq)
			err = l.part.Write(t, l.segStart(s.seg), 1, s.vec[0])
		}
	} else {
		// Simulated: one sequential I/O for the whole segment.
		err = l.part.Write(t, l.segStart(s.seg), 1+s.used, nil)
	}
	if err != nil {
		return err
	}
	l.summaries[s.seg] = s.entries
	l.sut[s.seg].state = segInUse
	l.sut[s.seg].seq = uint32(l.seq)
	l.seq++
	l.segsWritten.Inc()
	if s.used < l.dataSlots {
		l.partialSegs.Inc()
	}
	// Blocks are durable; forget the pending copies.
	base := l.segStart(s.seg) + 1
	for i := 0; i < s.used; i++ {
		delete(l.pending, base+int64(i))
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
