package lfs

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/sched"
)

// arenaCap bounds the arena's free list: enough 4 KB blocks for a
// barrier's metadata and a typical cleaner run (its live blocks plus
// the discard block), few enough that what the free list keeps between
// bursts stays a rounding error of the heap.
const arenaCap = 8

// takeBlock lends a 4 KB block from the arena's free list, or makes
// one when the list is empty. Its bytes are whatever its last owner
// left there. Caller holds l.mu.
func (l *LFS) takeBlock() []byte {
	n := len(l.arena)
	if n == 0 {
		return make([]byte, core.BlockSize)
	}
	b := l.arena[n-1]
	l.arena[n-1] = nil
	l.arena = l.arena[:n-1]
	return b
}

// putBlock returns a block to the arena; past arenaCap it is dropped
// for the collector. Caller holds l.mu.
func (l *LFS) putBlock(b []byte) {
	if len(l.arena) < arenaCap {
		l.arena = append(l.arena, b)
	}
}

// appendBlock reserves the next front slot of the open segment for one
// block (data, an inode-map chunk, a cleaner copy), staging data in
// the open segment (real mode) and recording the summary entry. With
// own set, data is an arena block the slot takes over (the cleaner's
// copies, inode-map chunks). It returns the block's new address. Full
// segments are written out and a fresh one opened; the caller must
// hold l.mu.
func (l *LFS) appendBlock(t sched.Task, kind uint8, file core.FileID, blk int64, data []byte, own bool) (int64, error) {
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
		switch {
		case own:
			s.owned[slot] = true
		case kind == kindData && len(data) == core.BlockSize:
			// Zero-copy: the slot aliases the flush job's cache frame.
			// The alias must not outlive the job (a front-end rewrite
			// of the block mutates the frame the moment the job's
			// Flushing window closes), so WriteBlocks drains its slots
			// to the device before returning (writeThrough).
		default:
			dst := l.takeBlock()
			clear(dst[copy(dst, data):])
			data = dst
			s.owned[slot] = true
			if kind == kindData {
				l.staged.Add(int64(len(data)))
			}
		}
		s.vec[1+slot] = data
		l.pending[addr] = data
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
	i := l.reusable(t)
	seg := l.freeSegs[i]
	l.freeSegs = slices.Delete(l.freeSegs, i, i+1)
	sb := l.spare
	l.spare = nil
	switch {
	case sb != nil:
		// The retired segment's buffers: every slot went back to the
		// arena when it was written, so only the summary block and the
		// positional entries carry anything over.
		clear(sb.vec[0])
		clear(sb.entries)
		*sb = segBuf{vec: sb.vec, entries: sb.entries, sums: sb.sums, owned: sb.owned}
	case l.part.Simulated:
		sb = &segBuf{}
	default:
		sb = &segBuf{
			vec:     make([][]byte, l.cfg.SegBlocks),
			entries: make([]sumEntry, l.dataSlots),
			sums:    make([]uint32, l.dataSlots),
			owned:   make([]bool, l.dataSlots),
		}
		sb.vec[0] = make([]byte, core.BlockSize) // owned summary block
	}
	sb.seg = seg
	l.sut[seg] = segInfo{live: 0, seq: uint32(l.seq), state: segCurrent}
	l.cur = sb
	return nil
}

// reusable returns the index in freeSegs of the first segment no
// device read is in flight from. ReadRunVec drops l.mu before its
// request, so the cleaner may free a segment under a read that looked
// up a block there; until that read is done the log must not write
// the segment again. When every free segment has one, it waits: the
// reads finish without l.mu. A simulated partition holds no bytes to
// overwrite, so it takes the first.
func (l *LFS) reusable(t sched.Task) int {
	for {
		for i, s := range l.freeSegs {
			if l.part.Simulated || l.reading[s].Load() == 0 {
				return i
			}
		}
		t.Sleep(10 * time.Microsecond)
	}
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
	ids := l.ids[:0]
	for id := range l.dirtyInodes {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	l.ids = ids

	batch := l.batch[:0]
	flushBatch := func() {
		if len(batch) == 0 {
			return
		}
		addr, buf, err := l.appendBlockNoRefill(kindInode, batch[0], 0)
		if err != nil {
			return
		}
		old := l.oldHomes[:0]
		for i, id := range batch {
			ino := l.inodes[id]
			if buf != nil {
				layout.EncodeInode(l.toDiskInode(ino), buf[i*layout.InodeSize:])
			}
			ent := l.imap[id]
			if ent.addr >= 0 && ent.addr != addr && !slices.Contains(old, ent.addr) {
				old = append(old, ent.addr)
			}
			ent.addr = addr
			ent.slot = uint8(i)
			l.imapDirty[int(id)/imapPerChunk] = true
			delete(l.dirtyInodes, id)
		}
		// Previous homes of these inodes may now be fully dead; their
		// id slices come back for this block's.
		for _, a := range old {
			l.noteInodeSlotDead(a)
		}
		l.oldHomes = old[:0]
		l.inodeBlockIDs[addr] = append(l.takeIDs(len(batch)), batch...)
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
	l.batch = batch
}

// takeIDs returns an empty id slice with room for n ids for an inode
// block's entry in inodeBlockIDs: the slice of a dead inode block
// when one is big enough, else a new one. The entry is kept for the
// block's life, so each block has its own.
func (l *LFS) takeIDs(n int) []core.FileID {
	for i, ids := range l.idFree {
		if cap(ids) >= n {
			last := len(l.idFree) - 1
			l.idFree[i] = l.idFree[last]
			l.idFree[last] = nil
			l.idFree = l.idFree[:last]
			return ids[:0]
		}
	}
	return make([]core.FileID, 0, n)
}

// dropInodeBlock forgets a dead inode block's id list, keeping the
// slice for takeIDs (up to arenaCap of them, as the arena keeps
// blocks).
func (l *LFS) dropInodeBlock(addr int64) {
	if ids, ok := l.inodeBlockIDs[addr]; ok {
		delete(l.inodeBlockIDs, addr)
		if len(l.idFree) < arenaCap {
			l.idFree = append(l.idFree, ids)
		}
	}
}

// appendBlockNoRefill reserves a slot for an inode or indirect block
// without appendBlock's write-and-reopen path: packInodes guarantees
// room before calling. On a real partition these blocks fill the
// segment from its far end (see segBuf), so the metadata a barrier
// adds after every flush job does not interleave with file data, and
// the slot is a zeroed arena block, returned for the caller to encode
// into before anything is written through (nil when simulated).
func (l *LFS) appendBlockNoRefill(kind uint8, file core.FileID, blk int64) (int64, []byte, error) {
	if l.cur == nil || l.cur.filled() >= l.dataSlots {
		return -1, nil, fmt.Errorf("lfs %s: internal: no room reserved for metadata block", l.name)
	}
	s := l.cur
	slot := s.used
	var buf []byte
	if s.vec != nil {
		slot = l.dataSlots - 1 - s.back
		buf = l.takeBlock()
		clear(buf)
		s.owned[slot] = true
		s.back++
	} else {
		s.used++
	}
	addr := l.segStart(s.seg) + 1 + int64(slot)
	if buf != nil {
		s.vec[1+slot] = buf
		l.pending[addr] = buf
	}
	l.noteSlot(s, slot, sumEntry{Kind: kind, File: file, Blk: blk})
	return addr, buf, nil
}

// indirectBlocksNeeded counts the map blocks a file's inode needs.
func (l *LFS) indirectBlocksNeeded(ino *layout.Inode) int {
	_, n, err := layout.SplitBlockMap(ino.Blocks)
	if err != nil {
		return 0
	}
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
	for g := 0; g < groups; g++ {
		addr, buf, err := l.appendBlockNoRefill(kindIndirect, ino.ID, int64(g))
		if err != nil {
			return err
		}
		if buf != nil {
			layout.EncodeAddrs(layout.IndirectGroup(ino.Blocks, g), buf)
		}
		ino.IndAddrs = append(ino.IndAddrs, addr)
	}
	if groups > 1 {
		// Double-indirect root: addresses of leaves 1..n (leaf 0 is
		// the single-indirect block reachable from the inode).
		addr, buf, err := l.appendBlockNoRefill(kindIndirect, ino.ID, -1)
		if err != nil {
			return err
		}
		if buf != nil {
			layout.EncodeAddrs(ino.IndAddrs[1:groups], buf)
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
	// be rewritten freely now), hand owned blocks back to the arena,
	// and serve readers from the device.
	for i := lo; i < hi; i++ {
		delete(l.pending, base+int64(i))
		if s.owned[i] {
			l.putBlock(s.vec[1+i])
			s.owned[i] = false
		}
		s.vec[1+i] = nil
	}
	return nil
}

// materializeCur replaces every not-yet-written-through front slot of
// the open segment that aliases a cache frame with an owned arena
// copy of its bytes (back slots hold metadata, which is always owned).
// Those aliases are only safe inside the flush job's Flushing window —
// when an error aborts the job before writeThrough drains the slots,
// the window closes with the slots still staged, and the retry (or the
// next job's writeThrough) must read the bytes the job appended, not
// whatever the frames hold by then. The copies count as staged bytes,
// paid only on failed writes. Caller holds l.mu.
func (l *LFS) materializeCur() {
	s := l.cur
	if s == nil || s.vec == nil {
		return
	}
	base := l.segStart(s.seg) + 1
	for i := s.done; i < s.used; i++ {
		src := s.vec[1+i]
		if src == nil || s.owned[i] {
			continue
		}
		cp := l.takeBlock()
		copy(cp, src)
		l.staged.Add(int64(len(cp)))
		s.vec[1+i] = cp
		s.owned[i] = true
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
		l.retire(s)
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
	l.retire(s)
	return nil
}

// retire closes the open segment s. A real one is fully written
// through — every slot back in the arena, nothing pending — so its
// buffers are kept for the next openSegment; a simulated one's entries
// now belong to l.summaries.
func (l *LFS) retire(s *segBuf) {
	if s.vec != nil {
		l.spare = s
	}
	l.cur = nil
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
