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
// Recovery ends with a full usage recount from the reachable tree
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
		if err := l.recountLocked(t, &st); err != nil {
			return st, err
		}
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
		seg     int
		seq     uint64
		entries []sumEntry
		sums    []uint32
	}
	var cands []cand
	for seg := 0; seg < l.nsegs; seg++ {
		if l.sut[seg].state != segFree {
			continue // already referenced by the checkpoint
		}
		entries, seq, sums, err := l.readSummaryFull(t, seg)
		if err != nil || seq <= cpSeq {
			continue // never written, or a stale pre-checkpoint life
		}
		cands = append(cands, cand{seg, seq, entries, sums})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].seq < cands[j].seq })

	for _, c := range cands {
		if st.TornTail {
			// Segments past a torn write postdate the power cut's
			// final I/O; nothing there can be trusted.
			break
		}
		l.claimSegLocked(c.seg, uint32(c.seq))
		st.RolledSegments++
		// The rolled segment's used blocks are read lazily in
		// clustered runs (one block per request with clustering off)
		// as the entry loop advances, so a torn entry — unreadable
		// block or bad checksum — stops the reading exactly where the
		// one-block-at-a-time path did.
		segData := make([]byte, len(c.entries)*core.BlockSize)
		readable := 0
		applied := 0
		for i, e := range c.entries {
			addr := l.segStart(c.seg) + 1 + int64(i)
			if i >= readable {
				readable += l.readSegRun(t, c.seg, segData, readable, len(c.entries))
				if i >= readable {
					st.TornTail = true
					break
				}
			}
			buf := segData[i*core.BlockSize : (i+1)*core.BlockSize]
			if blockSum(buf) != c.sums[i] {
				st.TornTail = true
				break
			}
			applied = i + 1
			switch e.Kind {
			case kindData:
				l.rollDataLocked(t, e, addr, st)
			case kindInode:
				l.rollInodeBlockLocked(buf, addr, st)
			case kindImap:
				l.rollImapChunkLocked(buf, e, addr)
			case kindIndirect:
				// Re-attached through the inode records that point at
				// it; the recount settles its liveness.
			}
		}
		l.summaries[c.seg] = c.entries[:applied]
		// New segments must be dated after everything rolled forward,
		// or a second crash would mis-order the log.
		if c.seq >= l.seq {
			l.seq = c.seq + 1
		}
	}
	return nil
}

// readSegRun reads the next clustered run of seg's data blocks —
// starting at block index from, at most the run cap, never past
// count — into its place in buf, returning how many blocks it could
// read. A failed multi-block read falls back to single-block reads
// so the exact tear point is found — the same
// stop-at-first-unreadable-block semantics the one-block-at-a-time
// path has (and exactly that path when the cap is 1).
func (l *LFS) readSegRun(t sched.Task, seg int, buf []byte, from, count int) int {
	run := count - from
	if lim := l.ClusterRun(); run > lim {
		run = lim
	}
	if run <= 0 {
		return 0
	}
	base := l.segStart(seg) + 1
	dst := buf[from*core.BlockSize : (from+run)*core.BlockSize]
	if err := l.part.Read(t, base+int64(from), run, dst); err == nil {
		return run
	}
	if run == 1 {
		return 0
	}
	// Retry the failed run block by block to locate the tear.
	for i := 0; i < run; i++ {
		one := buf[(from+i)*core.BlockSize : (from+i+1)*core.BlockSize]
		if err := l.part.Read(t, base+int64(from+i), 1, one); err != nil {
			return i
		}
	}
	return run
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
// data cannot be reached and is dropped (counted, not silently).
func (l *LFS) rollDataLocked(t sched.Task, e sumEntry, addr int64, st *layout.RecoveryStats) {
	if l.imap[e.File] == nil {
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

// recountLocked rebuilds the usage table, free list and inode-block
// index from the reachable file tree — the recovered state must
// satisfy exactly the invariants Check verifies.
func (l *LFS) recountLocked(t sched.Task, st *layout.RecoveryStats) error {
	live := make([]int32, l.nsegs)
	count := func(addr int64) {
		if addr < l.seg0 {
			return
		}
		if seg := l.segOf(addr); seg >= 0 && seg < l.nsegs {
			live[seg]++
		}
	}
	ids := make([]core.FileID, 0, len(l.imap))
	for id, ent := range l.imap {
		if ent.addr >= 0 || l.inodes[id] != nil {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	inodeBlocks := make(map[int64][]core.FileID)
	for _, id := range ids {
		ino, err := l.getInodeLocked(t, id)
		if err != nil {
			// Unreadable past roll-forward: corruption beyond what the
			// log can repair. Drop the file rather than the volume.
			st.Repairs = append(st.Repairs, fmt.Sprintf("dropped unreadable inode %d: %v", id, err))
			ent := l.imap[id]
			ent.addr = -1
			ent.version++
			l.imapDirty[int(id)/imapPerChunk] = true
			delete(l.inodes, id)
			delete(l.dirtyInodes, id)
			continue
		}
		for _, a := range ino.Blocks {
			if a >= 0 {
				count(a)
			}
		}
		for _, a := range ino.IndAddrs {
			count(a)
		}
		if ent := l.imap[id]; ent != nil && ent.addr >= 0 {
			inodeBlocks[ent.addr] = append(inodeBlocks[ent.addr], id)
		}
	}
	// Shared inode blocks count once, imap chunks once each.
	addrs := make([]int64, 0, len(inodeBlocks))
	for a := range inodeBlocks {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		count(a)
	}
	for _, a := range l.imapAddr {
		if a >= 0 {
			count(a)
		}
	}
	l.freeSegs = l.freeSegs[:0]
	for seg := 0; seg < l.nsegs; seg++ {
		if live[seg] == 0 {
			l.sut[seg] = segInfo{state: segFree}
			l.freeSegs = append(l.freeSegs, seg)
			delete(l.summaries, seg)
			continue
		}
		l.sut[seg].live = live[seg]
		if l.sut[seg].state == segFree {
			l.sut[seg].state = segInUse
		}
	}
	l.inodeBlockIDs = inodeBlocks
	return nil
}

// GrowSize publishes a size growth: the size grows under l.mu, the
// lock every metadata reader (inode packing, log decode) holds.
func (l *LFS) GrowSize(t sched.Task, ino *layout.Inode, size int64) {
	l.mu.Lock(t)
	defer l.mu.Unlock(t)
	if size > ino.Size {
		ino.Size = size
		l.dirtyInodes[ino.ID] = true
	}
}

// WithInode is the inode publication lock: fn runs under l.mu, so
// the segment packer never encodes the inode mid-mutation.
func (l *LFS) WithInode(t sched.Task, ino *layout.Inode, fn func()) {
	l.mu.Lock(t)
	defer l.mu.Unlock(t)
	fn()
}

// WriteBarrier implements layout.Barrier: the open segment (with the
// blocks WriteBlocks has staged so far) goes to disk as a partial
// segment, together with every dirty inode record. Packing the
// inodes matters for the paper's no-acknowledged-loss argument: a
// barrier that flushed only data would leave the records volatile,
// and roll-forward would count the just-hardened blocks of a fresh
// file as orphans of an inode that never reached the log. With the
// records in the same barrier, data made durable this way needs no
// checkpoint to survive.
func (l *LFS) WriteBarrier(t sched.Task) error {
	l.mu.Lock(t)
	defer l.mu.Unlock(t)
	return l.writeCurSegment(t, true)
}

// DurableSeq is the durability watermark: the log sequence
// number advances with every segment flush and checkpoint, so a
// caller that snapshots it around a sync can tell the covering
// barrier really reached the disk.
func (l *LFS) DurableSeq(t sched.Task) uint64 {
	l.mu.Lock(t)
	defer l.mu.Unlock(t)
	return l.seq
}

// LiveInodes implements layout.InodeEnumerator.
func (l *LFS) LiveInodes(t sched.Task) []core.FileID {
	l.mu.Lock(t)
	defer l.mu.Unlock(t)
	ids := make([]core.FileID, 0, len(l.imap))
	for id, ent := range l.imap {
		if ent.addr >= 0 || l.inodes[id] != nil {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// InodeCursor implements layout.AllocCursor.
func (l *LFS) InodeCursor(t sched.Task) uint64 {
	l.mu.Lock(t)
	defer l.mu.Unlock(t)
	return uint64(l.nextIno)
}

// SetInodeCursor implements layout.AllocCursor.
func (l *LFS) SetInodeCursor(t sched.Task, cur uint64) {
	l.mu.Lock(t)
	defer l.mu.Unlock(t)
	if core.FileID(cur) > l.nextIno {
		l.nextIno = core.FileID(cur)
	}
}
