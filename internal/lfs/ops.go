package lfs

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/sched"
)

func timeNS(ns int64) time.Duration { return time.Duration(ns) }

// AllocInode creates a fresh inode of the given type.
func (l *LFS) AllocInode(t sched.Task, typ core.FileType) (*layout.Inode, error) {
	l.mu.Lock(t)
	defer l.mu.Unlock(t)
	if int(l.nextIno) >= l.cfg.MaxInodes {
		return nil, core.ErrNoSpace
	}
	id := l.nextIno
	l.nextIno++
	ino := &layout.Inode{
		ID:    id,
		Type:  typ,
		Nlink: layout.BirthLinks(typ),
		// The generation number: a reused inode id gets a fresh
		// Version, so stale handles (NFS) can be told from the new
		// file after recovery reallocates the slot.
		Version: uint64(l.k.Now()),
		MTime:   int64(l.k.Now()),
		CTime:   int64(l.k.Now()),
	}
	ent := &imapEnt{addr: -1}
	if old := l.imap[id]; old != nil {
		ent.version = old.version + 1
	}
	l.imap[id] = ent
	l.imapDirty[int(id)/imapPerChunk] = true
	l.inodes[id] = ino
	l.dirtyInodes[id] = true
	return ino, nil
}

// RestoreInode implements layout.Member: it creates an inode
// at a caller-chosen number, bumping the sequential cursor past it.
// Array rebuild replays a dead member's live inode set this way.
func (l *LFS) RestoreInode(t sched.Task, id core.FileID, typ core.FileType) (*layout.Inode, error) {
	l.mu.Lock(t)
	defer l.mu.Unlock(t)
	if int(id) >= l.cfg.MaxInodes {
		return nil, core.ErrNoSpace
	}
	if ent := l.imap[id]; ent != nil && ent.addr >= 0 {
		return nil, core.ErrExists
	}
	if l.inodes[id] != nil {
		return nil, core.ErrExists
	}
	ino := &layout.Inode{
		ID:      id,
		Type:    typ,
		Nlink:   1,
		Version: uint64(l.k.Now()),
		MTime:   int64(l.k.Now()),
		CTime:   int64(l.k.Now()),
	}
	ent := &imapEnt{addr: -1}
	if old := l.imap[id]; old != nil {
		ent.version = old.version + 1
	}
	l.imap[id] = ent
	l.imapDirty[int(id)/imapPerChunk] = true
	l.inodes[id] = ino
	l.dirtyInodes[id] = true
	if id >= l.nextIno {
		l.nextIno = id + 1
	}
	return ino, nil
}

// GetInode fetches an inode, from the in-memory table or — on a real
// volume — from the log.
func (l *LFS) GetInode(t sched.Task, id core.FileID) (*layout.Inode, error) {
	l.mu.Lock(t)
	defer l.mu.Unlock(t)
	return l.getInodeLocked(t, id)
}

// readInodeFromLog reads and decodes an inode record plus its block
// map.
func (l *LFS) readInodeFromLog(t sched.Task, ent *imapEnt) (*layout.Inode, error) {
	buf := make([]byte, core.BlockSize)
	if err := l.readLogBlock(t, ent.addr, buf); err != nil {
		return nil, err
	}
	di, err := layout.DecodeInode(buf[int(ent.slot)*layout.InodeSize:])
	if err != nil {
		return nil, err
	}
	ino := &di.Ino
	nblocks := layout.BlocksForSize(ino.Size)
	ino.Blocks = make([]int64, 0, nblocks)
	for i := 0; i < layout.NDirect && int64(len(ino.Blocks)) < nblocks; i++ {
		ino.Blocks = append(ino.Blocks, di.Direct[i])
	}
	if int64(len(ino.Blocks)) < nblocks && di.Ind >= 0 {
		ino.IndAddrs = append(ino.IndAddrs, di.Ind)
		ibuf := make([]byte, core.BlockSize)
		if err := l.readLogBlock(t, di.Ind, ibuf); err != nil {
			return nil, err
		}
		n := int(nblocks) - len(ino.Blocks)
		if n > layout.AddrsPerBlock {
			n = layout.AddrsPerBlock
		}
		ino.Blocks = append(ino.Blocks, layout.DecodeAddrs(ibuf, n)...)
	}
	if int64(len(ino.Blocks)) < nblocks && di.DInd >= 0 {
		dbuf := make([]byte, core.BlockSize)
		if err := l.readLogBlock(t, di.DInd, dbuf); err != nil {
			return nil, err
		}
		remaining := int(nblocks) - len(ino.Blocks)
		nleaves := (remaining + layout.AddrsPerBlock - 1) / layout.AddrsPerBlock
		leaves := layout.DecodeAddrs(dbuf, nleaves)
		ibuf := make([]byte, core.BlockSize)
		for _, leaf := range leaves {
			if leaf < 0 {
				// The size over-covers the map (a volume-manager
				// shadow carries the array-global size): a nil leaf
				// ends the tree, it is never a legal address.
				break
			}
			ino.IndAddrs = append(ino.IndAddrs, leaf)
			if err := l.readLogBlock(t, leaf, ibuf); err != nil {
				return nil, err
			}
			n := int(nblocks) - len(ino.Blocks)
			if n > layout.AddrsPerBlock {
				n = layout.AddrsPerBlock
			}
			ino.Blocks = append(ino.Blocks, layout.DecodeAddrs(ibuf, n)...)
		}
		ino.IndAddrs = append(ino.IndAddrs, di.DInd)
	}
	return ino, nil
}

// toDiskInode splits the flat block map into the on-disk pointer
// form. Indirect addresses must already have been assigned by
// writeIndirects.
func (l *LFS) toDiskInode(ino *layout.Inode) *layout.DiskInode {
	di := &layout.DiskInode{Ino: *ino, Ind: -1, DInd: -1}
	di.Ino.Blocks = nil
	di.Ino.IndAddrs = nil
	direct, groups, _ := layout.SplitBlockMap(ino.Blocks)
	di.Direct = direct
	if len(groups) >= 1 && len(ino.IndAddrs) >= 1 {
		di.Ind = ino.IndAddrs[0]
	}
	if len(groups) > 1 && len(ino.IndAddrs) == len(groups)+1 {
		di.DInd = ino.IndAddrs[len(ino.IndAddrs)-1]
	}
	return di
}

// UpdateInode marks the inode dirty; it reaches the log with the
// next segment write.
func (l *LFS) UpdateInode(t sched.Task, ino *layout.Inode) error {
	l.mu.Lock(t)
	defer l.mu.Unlock(t)
	if l.imap[ino.ID] == nil {
		return core.ErrStale
	}
	l.inodes[ino.ID] = ino
	l.dirtyInodes[ino.ID] = true
	return nil
}

// FreeInode deletes the file: all its blocks die in the usage table
// and the imap slot is invalidated.
func (l *LFS) FreeInode(t sched.Task, id core.FileID) error {
	l.mu.Lock(t)
	defer l.mu.Unlock(t)
	ent := l.imap[id]
	if ent == nil {
		return core.ErrNotFound
	}
	if ino := l.inodes[id]; ino != nil {
		for _, a := range ino.Blocks {
			if a >= 0 {
				l.deadBlock(a)
			}
		}
		for _, a := range ino.IndAddrs {
			l.deadBlock(a)
		}
	}
	// Invalidate the imap slot before the dead-slot scan: the scan
	// walks the block's inode list against the imap, and this entry
	// must not keep its own (now dead) block alive.
	addr := ent.addr
	ent.addr = -1
	ent.version++
	l.imapDirty[int(id)/imapPerChunk] = true
	if addr >= 0 {
		l.noteInodeSlotDead(addr)
	}
	delete(l.inodes, id)
	delete(l.dirtyInodes, id)
	return nil
}

// noteInodeSlotDead kills a whole inode block in the usage table
// when its last live slot dies.
func (l *LFS) noteInodeSlotDead(addr int64) {
	ids := l.inodeBlockIDs[addr]
	for _, other := range ids {
		if e := l.imap[other]; e != nil && e.addr == addr {
			return // block still hosts a live inode
		}
	}
	l.deadBlock(addr)
	delete(l.inodeBlockIDs, addr)
}

// ReadRunVec implements the clustered read: file blocks written
// together sit at adjacent log addresses, so the run is discovered
// by address adjacency in the block map and moved in one device
// request, scattered into bufs (nil when simulated). Blocks still in
// the open segment (pending) are served from memory one at a time,
// holes as a single zeroed block.
func (l *LFS) ReadRunVec(t sched.Task, ino *layout.Inode, blk core.BlockNo, n int, bufs [][]byte) (int, error) {
	if lim := l.ClusterRun(); n > lim {
		n = lim
	}
	if len(bufs) == 0 && !l.part.Simulated {
		return 0, core.ErrInval
	}
	if len(bufs) > 0 && n > len(bufs) {
		n = len(bufs)
	}
	l.mu.Lock(t)
	addr := ino.BlockAddr(blk)
	if addr < 0 {
		l.mu.Unlock(t)
		if len(bufs) > 0 {
			clear(bufs[0][:core.BlockSize])
		}
		return 1, nil
	}
	if buf, ok := l.pending[addr]; ok {
		// Only a real partition stages pending blocks, and it always
		// has bufs here.
		copy(bufs[0][:core.BlockSize], buf)
		l.mu.Unlock(t)
		return 1, nil
	}
	run := 1
	for run < n {
		next := addr + int64(run)
		if ino.BlockAddr(blk+core.BlockNo(run)) != next {
			break
		}
		if _, pend := l.pending[next]; pend {
			break
		}
		run++
	}
	l.mu.Unlock(t)
	return run, l.part.ReadRun(t, addr, run, bufs)
}

// readLogBlock reads one metadata block, honoring the pending map.
func (l *LFS) readLogBlock(t sched.Task, addr int64, data []byte) error {
	if buf, ok := l.pending[addr]; ok {
		copy(data, buf)
		return nil
	}
	return l.part.Read(t, addr, 1, data)
}

// WriteBlocks appends the file's dirty blocks to the log
// contiguously, replacing any older versions, and marks the inode
// dirty. This is the path every cache flush takes.
func (l *LFS) WriteBlocks(t sched.Task, ino *layout.Inode, writes []layout.BlockWrite) (err error) {
	l.mu.Lock(t)
	defer l.mu.Unlock(t)
	if !l.mounted {
		return fmt.Errorf("lfs %s: not mounted", l.name)
	}
	// Any error return leaves this job's frame aliases staged past
	// their Flushing window — copy them out first (see
	// materializeCur).
	defer func() {
		if err != nil {
			l.materializeCur()
		}
	}()
	for _, w := range writes {
		if old := ino.BlockAddr(w.Blk); old >= 0 {
			l.deadBlock(old)
		}
		addr, err := l.appendBlock(t, kindData, ino.ID, int64(w.Blk), w.Data)
		if err != nil {
			return err
		}
		ino.SetBlockAddr(w.Blk, addr)
	}
	ino.MTime = int64(l.k.Now())
	l.dirtyInodes[ino.ID] = true
	// The slots alias this job's cache frames; push them to the device
	// while the frames are still Flushing-stable (no-op when
	// simulated).
	return l.writeThrough(t)
}

// Truncate drops blocks past newSize.
func (l *LFS) Truncate(t sched.Task, ino *layout.Inode, newSize int64) error {
	l.mu.Lock(t)
	defer l.mu.Unlock(t)
	keep := layout.BlocksForSize(newSize)
	for i := keep; i < int64(len(ino.Blocks)); i++ {
		if ino.Blocks[i] >= 0 {
			l.deadBlock(ino.Blocks[i])
		}
	}
	if keep < int64(len(ino.Blocks)) {
		ino.Blocks = ino.Blocks[:keep]
	}
	ino.Size = newSize
	ino.MTime = int64(l.k.Now())
	l.dirtyInodes[ino.ID] = true
	return nil
}

// Sync packs every dirty inode, writes the partial segment, flushes
// dirty inode-map chunks into the log, and commits a checkpoint.
func (l *LFS) Sync(t sched.Task) error {
	l.mu.Lock(t)
	defer l.mu.Unlock(t)
	if err := l.writeCurSegment(t, true); err != nil {
		return err
	}
	return l.checkpointLocked(t)
}

// PlaceExisting gives a file that "existed before the simulation"
// sticky random addresses: whole free segments are taken from the
// pool, marked fully live, and carved up — the simulator's educated
// guess at the initial layout of the file system.
func (l *LFS) PlaceExisting(t sched.Task, ino *layout.Inode, size int64) error {
	l.mu.Lock(t)
	defer l.mu.Unlock(t)
	if !l.part.Simulated {
		return layout.ErrNoPlaceExisting
	}
	need := layout.BlocksForSize(size)
	rng := l.k.Rand()
	for need > 0 {
		if len(l.freeSegs) <= l.cfg.MinFreeSegs {
			return core.ErrNoSpace
		}
		// Pick a random free segment: sticky once chosen.
		i := rng.Intn(len(l.freeSegs))
		seg := l.freeSegs[i]
		l.freeSegs = append(l.freeSegs[:i], l.freeSegs[i+1:]...)
		l.sut[seg] = segInfo{state: segInUse, seq: 0}
		var sum []sumEntry
		base := l.segStart(seg) + 1
		for s := 0; s < l.dataSlots && need > 0; s++ {
			blk := core.BlockNo(len(ino.Blocks))
			ino.SetBlockAddr(blk, base+int64(s))
			sum = append(sum, sumEntry{Kind: kindData, File: ino.ID, Blk: int64(blk)})
			l.sut[seg].live++
			need--
		}
		l.summaries[seg] = sum
	}
	ino.Size = size
	l.inodes[ino.ID] = ino
	l.dirtyInodes[ino.ID] = true
	return nil
}
