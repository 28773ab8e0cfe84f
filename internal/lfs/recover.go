package lfs

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/sched"
)

// This file is the LFS crash-recovery path: mount from the newer
// valid checkpoint, then roll the log forward through the segment
// summaries written after it — data blocks re-attach to their
// inodes, packed inode records and inode-map chunks become the
// newest locations, and a torn tail (the power cut's final, partial
// segment write) is detected by the per-entry checksums and cut off.
// Recovery ends with the reachability walk in repair mode (check.go)
// and a fresh checkpoint, so fsck reports the volume clean.

// Recover rolls the log forward. It must be called on an LFS
// that has not been mounted yet (a fresh incarnation over a crashed
// partition). On simulated partitions — whose state survives in
// memory — it charges the I/O a real recovery would perform (reading
// both checkpoint regions and every in-use summary) and recommits a
// checkpoint, which is the recovery-time model the reliability study
// measures.
func (l *LFS) Recover(t sched.Task) (layout.RecoveryStats, error) {
	l.mu.Lock(t)
	defer l.mu.Unlock(t)
	var st layout.RecoveryStats
	if l.part.Simulated {
		if l.sut == nil {
			return st, fmt.Errorf("lfs %s: simulated recovery requires Format first", l.name)
		}
		if err := l.part.Read(t, 0, 1, nil); err != nil {
			return st, err
		}
		for r := 0; r < 2; r++ {
			if err := l.part.Read(t, l.cpBase(r), int(l.cpSize), nil); err != nil {
				return st, err
			}
		}
		for seg := 0; seg < l.nsegs; seg++ {
			if l.sut[seg].state == segFree {
				continue
			}
			if err := l.part.Read(t, l.segStart(seg), 1, nil); err != nil {
				return st, err
			}
			st.RolledSegments++
		}
	} else {
		if err := l.readSuper(t); err != nil {
			return st, err
		}
		if err := l.readCheckpoint(t); err != nil {
			return st, err
		}
		if err := l.rollForwardLocked(t, &st); err != nil {
			return st, err
		}
		st.Repairs = l.recountLocked(t)
	}
	l.mounted = true
	// Make the recovered state durable: pack rolled-forward inodes,
	// flush dirty imap chunks, commit a checkpoint.
	if err := l.writeCurSegment(t, true); err != nil {
		return st, err
	}
	if err := l.checkpointLocked(t); err != nil {
		return st, err
	}
	return st, nil
}

// rollForwardLocked replays post-checkpoint segments in log order.
func (l *LFS) rollForwardLocked(t sched.Task, st *layout.RecoveryStats) error {
	cpSeq := l.seq - 1 // the mounted checkpoint's sequence
	type cand struct {
		seg int
		sum segSummary
	}
	var cands []cand
	for seg := 0; seg < l.nsegs; seg++ {
		if l.sut[seg].state != segFree {
			continue // already referenced by the checkpoint
		}
		sum, err := l.readSummary(t, seg)
		if err != nil || sum.seq <= cpSeq {
			continue // never written, or a stale pre-checkpoint life
		}
		cands = append(cands, cand{seg, sum})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].sum.seq < cands[j].sum.seq })

	for _, c := range cands {
		if st.TornTail {
			// Segments past a torn write postdate the power cut's
			// final I/O; nothing there can be trusted.
			break
		}
		l.claimSegLocked(c.seg, uint32(c.sum.seq))
		st.RolledSegments++
		l.rollSegmentLocked(t, c.seg, c.sum, st)
		// New segments must be dated after everything rolled forward,
		// or a second crash would mis-order the log.
		if c.sum.seq >= l.seq {
			l.seq = c.sum.seq + 1
		}
	}
	return nil
}

// rollSegmentLocked replays one segment: its front slots ascending
// (data in the order it was written), then its back slots descending —
// the far end fills downwards, so that is oldest metadata first and a
// file's newest inode record lands last, subsuming the data entries
// before it. Each end stops at its first unreadable block or bad
// checksum and flags the torn tail; a tear in the front does not
// suppress the back, whose intact entries earlier barriers
// acknowledged. Blocks are read lazily in clustered runs (one block
// per request with clustering off) in replay direction, and a failed
// run is retried block by block so the exact tear point is found.
func (l *LFS) rollSegmentLocked(t sched.Task, seg int, sum segSummary, st *layout.RecoveryStats) {
	base := l.segStart(seg) + 1
	segData := make([]byte, len(sum.entries)*core.BlockSize)
	load := func(from, n int) bool {
		return l.part.Read(t, base+int64(from), n, segData[from*core.BlockSize:(from+n)*core.BlockSize]) == nil
	}
	torn := false
	replay := func(first, count, step int) {
		lim := l.ClusterRun()
		lo, hi := 0, 0 // slots [lo, hi) of segData are loaded
		for j := 0; j < count; j++ {
			slot := first + j*step
			if slot < lo || slot >= hi {
				run := min(lim, count-j)
				from := slot
				if step < 0 {
					from = slot - run + 1
				}
				ok := load(from, run)
				if !ok && run > 1 {
					// Locate the tear block by block from here on.
					lim, from, run = 1, slot, 1
					ok = load(slot, 1)
				}
				if !ok {
					torn = true
					return
				}
				lo, hi = from, from+run
			}
			buf := segData[slot*core.BlockSize : (slot+1)*core.BlockSize]
			e := sum.entries[slot]
			if e.Kind == 0 || l.format.sum(buf) != sum.sums[slot] {
				torn = true
				return
			}
			switch e.Kind {
			case kindData:
				l.rollDataLocked(t, e, base+int64(slot), st)
			case kindInode:
				l.rollInodeBlockLocked(buf, base+int64(slot), st)
			case kindImap:
				l.rollImapChunkLocked(buf, e, base+int64(slot))
			case kindIndirect:
				// Re-attached through the inode records that point at
				// it; the recount settles its liveness.
			}
		}
	}
	replay(0, sum.front, +1)
	replay(l.dataSlots-1, sum.back, -1)
	if torn {
		// The summary on disk claims more than was applied. The cleaner
		// still reads it: it judges each slot by the file maps, so a
		// slot that no applied entry or inode record maps is dead.
		st.TornTail = true
	}
}

// claimSegLocked withdraws seg from the free pool and marks it in
// use under the given sequence.
func (l *LFS) claimSegLocked(seg int, seq uint32) {
	for i, s := range l.freeSegs {
		if s == seg {
			l.freeSegs = append(l.freeSegs[:i], l.freeSegs[i+1:]...)
			break
		}
	}
	l.sut[seg] = segInfo{state: segInUse, seq: seq}
}

// rollDataLocked re-attaches one rolled-forward data block to its
// file. A file whose inode never reached the disk is an orphan: its
// data cannot be reached and is dropped (counted, not silently), and
// so is an entry naming a block no file map can hold.
func (l *LFS) rollDataLocked(t sched.Task, e sumEntry, addr int64, st *layout.RecoveryStats) {
	if l.imap[e.File] == nil || e.Blk < 0 || e.Blk >= layout.MaxFileBlocks {
		st.OrphanBlocks++
		return
	}
	ino, err := l.getInodeLocked(t, e.File)
	if err != nil {
		st.OrphanBlocks++
		return
	}
	blk := core.BlockNo(e.Blk)
	if old := ino.BlockAddr(blk); old >= 0 && old != addr {
		l.deadBlock(old)
	}
	ino.SetBlockAddr(blk, addr)
	// A block wholly beyond the recorded size is an append the inode
	// never captured; grow to cover it. Rewrites within the known
	// size leave the size alone (the tail of a partial final block is
	// not recoverable without its inode record).
	if end := (e.Blk + 1) * core.BlockSize; blk >= core.BlockNo(layout.BlocksForSize(ino.Size)) && end > ino.Size {
		ino.Size = end
	}
	l.dirtyInodes[e.File] = true
	st.DataBlocks++
}

// rollInodeBlockLocked adopts a packed inode-record block as the
// newest home of the records it carries.
func (l *LFS) rollInodeBlockLocked(buf []byte, addr int64, st *layout.RecoveryStats) {
	var ids []core.FileID
	for slot := 0; slot < layout.InodesPerBlk; slot++ {
		di, err := layout.DecodeInode(buf[slot*layout.InodeSize:])
		if err != nil {
			continue // empty slot
		}
		id := di.Ino.ID
		ent := l.imap[id]
		if ent == nil {
			ent = &imapEnt{addr: -1}
			l.imap[id] = ent
		}
		ent.addr = addr
		ent.slot = uint8(slot)
		l.imapDirty[int(id)/imapPerChunk] = true
		// Drop any cached copy so reads load this newer record (it
		// subsumes the data entries replayed before it).
		delete(l.inodes, id)
		delete(l.dirtyInodes, id)
		if id >= l.nextIno {
			l.nextIno = id + 1
		}
		ids = append(ids, id)
		st.InodeRecords++
	}
	l.inodeBlockIDs[addr] = ids
}

// rollImapChunkLocked adopts an inode-map chunk flushed into the log
// just before a checkpoint that never completed.
func (l *LFS) rollImapChunkLocked(buf []byte, e sumEntry, addr int64) {
	chunk := int(e.Blk)
	if chunk < 0 || chunk >= len(l.imapAddr) {
		return
	}
	l.imapAddr[chunk] = addr
	l.decodeImapChunk(chunk, buf)
	delete(l.imapDirty, chunk)
	base := core.FileID(chunk * imapPerChunk)
	for i := 0; i < imapPerChunk; i++ {
		id := base + core.FileID(i)
		if ent := l.imap[id]; ent != nil && ent.addr >= 0 && id >= l.nextIno {
			l.nextIno = id + 1
		}
	}
}

// WriteBarrier implements layout.Layout: the blocks WriteBlocks has
// staged so far and every dirty inode record reach the disk, and the
// open segment's summary is rewritten in place to cover them — a
// commit, not a close: the segment stays open and retires only when
// it is full, at Sync, or with the cleaner's final commit
// (commitCurSegment). Packing the inodes matters for the paper's
// no-acknowledged-loss argument: a barrier that flushed only data
// would leave the records volatile, and roll-forward would count the
// just-hardened blocks of a fresh file as orphans of an inode that
// never reached the log. With the records in the same barrier, data
// made durable this way needs no checkpoint to survive.
func (l *LFS) WriteBarrier(t sched.Task) error {
	l.mu.Lock(t)
	defer l.mu.Unlock(t)
	return l.commitCurSegment(t)
}

// DurableSeq is the durability watermark: the log sequence number
// advances with every retired segment and every checkpoint, and never
// moves backwards. A write barrier commits into the open segment
// without advancing it, so callers that snapshot it around a sync
// (fsys.SyncAll) can only conclude that the covering checkpoint did
// not regress — not that a barrier in between moved it.
func (l *LFS) DurableSeq(t sched.Task) uint64 {
	l.mu.Lock(t)
	defer l.mu.Unlock(t)
	return l.seq
}

// LiveInodes implements layout.Layout.
func (l *LFS) LiveInodes(t sched.Task) []core.FileID {
	l.mu.Lock(t)
	defer l.mu.Unlock(t)
	return l.liveIDs()
}

// InodeCursor implements layout.Layout: the sequential allocator.
func (l *LFS) InodeCursor(t sched.Task) uint64 {
	l.mu.Lock(t)
	defer l.mu.Unlock(t)
	return uint64(l.nextIno)
}

// SetInodeCursor implements layout.Layout; it never moves the cursor back.
func (l *LFS) SetInodeCursor(t sched.Task, cur uint64) {
	l.mu.Lock(t)
	defer l.mu.Unlock(t)
	if core.FileID(cur) > l.nextIno {
		l.nextIno = core.FileID(cur)
	}
}
