package ffs

import (
	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/sched"
)

// AllocInode creates an inode, spreading directories across groups
// and clustering files with their parents in the FFS manner (the
// parent affinity arrives through allocHintGroup set by callers;
// absent a hint, the least-loaded group wins).
func (f *FFS) AllocInode(t sched.Task, typ core.FileType) (*layout.Inode, error) {
	f.mu.Lock(t)
	defer f.mu.Unlock(t)
	g, idx := -1, -1
	if typ == core.TypeDirectory && !f.inoBits[0].get(int(core.RootFile)) {
		// The volume's first directory is its root, which lives at
		// the conventional fixed inode number.
		g, idx = 0, int(core.RootFile)
	} else {
		g = f.pickInodeGroup(typ)
		if g < 0 {
			return nil, core.ErrNoSpace
		}
		for i := 0; i < f.cfg.InodesPerGroup; i++ {
			if !f.inoBits[g].get(i) {
				idx = i
				break
			}
		}
		if idx < 0 {
			return nil, core.ErrNoSpace
		}
	}
	f.inoBits[g].set(idx)
	f.bitsDirty = true
	id := core.FileID(g*f.cfg.InodesPerGroup + idx)
	ino := &layout.Inode{
		ID:    id,
		Type:  typ,
		Nlink: layout.BirthLinks(typ),
		// The generation number: FFS reuses freed inode numbers, so a
		// fresh Version is what distinguishes the new file from stale
		// handles (NFS) naming the old one.
		Version: uint64(f.k.Now()),
		MTime:   int64(f.k.Now()),
		CTime:   int64(f.k.Now()),
	}
	f.inodes[id] = ino
	if err := f.writeInode(t, ino); err != nil {
		// The synchronous inode write is the commit point. Roll the
		// slot back on failure (a power cut mid-allocation), or this
		// member's bitmap drifts from its peers' and the array's
		// lockstep allocator breaks on the next create.
		f.inoBits[g].clear(idx)
		delete(f.inodes, id)
		return nil, err
	}
	return ino, nil
}

// pickInodeGroup returns the group for a new inode: directories go
// to the emptiest group, files to the fullest non-full one (keeping
// them near existing data), -1 when everything is full.
func (f *FFS) pickInodeGroup(typ core.FileType) int {
	best, bestFree := -1, -1
	for g := 0; g < f.ngroups; g++ {
		free := 0
		for i := 0; i < f.cfg.InodesPerGroup; i++ {
			if !f.inoBits[g].get(i) {
				free++
			}
		}
		if free == 0 {
			continue
		}
		if typ == core.TypeDirectory {
			if free > bestFree {
				best, bestFree = g, free
			}
		} else {
			if best < 0 || free < bestFree {
				best, bestFree = g, free
			}
		}
	}
	return best
}

// RestoreInode implements layout.Member: it creates an inode
// at a caller-chosen number (the group and slot follow from the
// number). Array rebuild replays a dead member's live inode set this
// way, since pickInodeGroup on a fresh layout would spread the same
// creations differently.
func (f *FFS) RestoreInode(t sched.Task, id core.FileID, typ core.FileType) (*layout.Inode, error) {
	f.mu.Lock(t)
	defer f.mu.Unlock(t)
	g := int(id) / f.cfg.InodesPerGroup
	idx := int(id) % f.cfg.InodesPerGroup
	if g >= f.ngroups {
		return nil, core.ErrNoSpace
	}
	if f.inoBits[g].get(idx) {
		return nil, core.ErrExists
	}
	f.inoBits[g].set(idx)
	f.bitsDirty = true
	ino := &layout.Inode{
		ID:      id,
		Type:    typ,
		Nlink:   1,
		Version: uint64(f.k.Now()),
		MTime:   int64(f.k.Now()),
		CTime:   int64(f.k.Now()),
	}
	f.inodes[id] = ino
	if err := f.writeInode(t, ino); err != nil {
		f.inoBits[g].clear(idx)
		delete(f.inodes, id)
		return nil, err
	}
	return ino, nil
}

// GetInode fetches an inode from memory or the inode table.
func (f *FFS) GetInode(t sched.Task, id core.FileID) (*layout.Inode, error) {
	f.mu.Lock(t)
	defer f.mu.Unlock(t)
	return f.getInodeLocked(t, id)
}

func (f *FFS) getInodeLocked(t sched.Task, id core.FileID) (*layout.Inode, error) {
	if ino := f.inodes[id]; ino != nil {
		return ino, nil
	}
	g := int(id) / f.cfg.InodesPerGroup
	if g >= f.ngroups || !f.inoBits[g].get(int(id)%f.cfg.InodesPerGroup) {
		return nil, core.ErrNotFound
	}
	if f.part.Simulated {
		return nil, core.ErrNotFound
	}
	_, blk, slot := f.inodeLoc(id)
	buf := make([]byte, core.BlockSize)
	if err := f.part.Read(t, blk, 1, buf); err != nil {
		return nil, err
	}
	di, err := layout.DecodeInode(buf[slot*layout.InodeSize:])
	if err != nil {
		return nil, err
	}
	ino := &di.Ino
	if err := f.loadBlockMap(t, ino, di); err != nil {
		return nil, err
	}
	f.inodes[id] = ino
	return ino, nil
}

// loadBlockMap rebuilds the flat block map from the pointer tree.
func (f *FFS) loadBlockMap(t sched.Task, ino *layout.Inode, di *layout.DiskInode) error {
	nblocks := layout.BlocksForSize(ino.Size)
	ino.Blocks = ino.Blocks[:0]
	for i := 0; i < layout.NDirect && int64(len(ino.Blocks)) < nblocks; i++ {
		ino.Blocks = append(ino.Blocks, di.Direct[i])
	}
	if int64(len(ino.Blocks)) < nblocks && di.Ind >= 0 {
		ino.IndAddrs = append(ino.IndAddrs, di.Ind)
		buf := make([]byte, core.BlockSize)
		if err := f.part.Read(t, di.Ind, 1, buf); err != nil {
			return err
		}
		n := int(nblocks) - len(ino.Blocks)
		if n > layout.AddrsPerBlock {
			n = layout.AddrsPerBlock
		}
		ino.Blocks = append(ino.Blocks, layout.DecodeAddrs(buf, n)...)
	}
	if int64(len(ino.Blocks)) < nblocks && di.DInd >= 0 {
		dbuf := make([]byte, core.BlockSize)
		if err := f.part.Read(t, di.DInd, 1, dbuf); err != nil {
			return err
		}
		remaining := int(nblocks) - len(ino.Blocks)
		nleaves := (remaining + layout.AddrsPerBlock - 1) / layout.AddrsPerBlock
		buf := make([]byte, core.BlockSize)
		for _, leaf := range layout.DecodeAddrs(dbuf, nleaves) {
			if leaf < 0 {
				// The size over-covers the map (a volume-manager
				// shadow carries the array-global size): a nil leaf
				// ends the tree, it is never a legal address.
				break
			}
			ino.IndAddrs = append(ino.IndAddrs, leaf)
			if err := f.part.Read(t, leaf, 1, buf); err != nil {
				return err
			}
			n := int(nblocks) - len(ino.Blocks)
			if n > layout.AddrsPerBlock {
				n = layout.AddrsPerBlock
			}
			ino.Blocks = append(ino.Blocks, layout.DecodeAddrs(buf, n)...)
		}
		ino.IndAddrs = append(ino.IndAddrs, di.DInd)
	}
	return nil
}

// writeInode writes an inode record in place (synchronous metadata,
// as FFS does), including its indirect map blocks.
func (f *FFS) writeInode(t sched.Task, ino *layout.Inode) error {
	// (Re)write indirect blocks first so the record points at them.
	if err := f.writeIndirects(t, ino); err != nil {
		return err
	}
	_, blk, slot := f.inodeLoc(ino.ID)
	var buf []byte
	if !f.part.Simulated {
		buf = make([]byte, core.BlockSize)
		if err := f.part.Read(t, blk, 1, buf); err != nil {
			return err
		}
		di := &layout.DiskInode{Ino: *ino, Ind: -1, DInd: -1}
		di.Ino.Blocks = nil
		di.Ino.IndAddrs = nil
		direct, groups, err := layout.SplitBlockMap(ino.Blocks)
		if err != nil {
			return err
		}
		di.Direct = direct
		if len(groups) >= 1 {
			di.Ind = ino.IndAddrs[0]
		}
		if len(groups) > 1 {
			di.DInd = ino.IndAddrs[len(ino.IndAddrs)-1]
		}
		layout.EncodeInode(di, buf[slot*layout.InodeSize:])
	}
	f.inoWrites.Inc()
	f.durSeq++
	return f.part.Write(t, blk, 1, buf)
}

// writeIndirects allocates (once) and writes the file's indirect map
// blocks in place.
func (f *FFS) writeIndirects(t sched.Task, ino *layout.Inode) error {
	_, groups, err := layout.SplitBlockMap(ino.Blocks)
	if err != nil {
		return err
	}
	need := len(groups)
	if need > 1 {
		need++ // double-indirect root
	}
	// Allocate missing map blocks near the file's tail.
	hint := tailHint(ino)
	for len(ino.IndAddrs) < need {
		a, err := f.allocDataLocked(hint)
		if err != nil {
			return err
		}
		ino.IndAddrs = append(ino.IndAddrs, a)
	}
	for len(ino.IndAddrs) > need {
		last := ino.IndAddrs[len(ino.IndAddrs)-1]
		f.freeDataLocked(last)
		ino.IndAddrs = ino.IndAddrs[:len(ino.IndAddrs)-1]
	}
	if len(groups) == 0 {
		return nil
	}
	var buf []byte
	if !f.part.Simulated {
		buf = make([]byte, core.BlockSize)
	}
	for gi, g := range groups {
		if buf != nil {
			layout.EncodeAddrs(g, buf)
		}
		if err := f.part.Write(t, ino.IndAddrs[gi], 1, buf); err != nil {
			return err
		}
	}
	if len(groups) > 1 {
		if buf != nil {
			layout.EncodeAddrs(ino.IndAddrs[1:len(groups)], buf)
		}
		if err := f.part.Write(t, ino.IndAddrs[len(ino.IndAddrs)-1], 1, buf); err != nil {
			return err
		}
	}
	return nil
}

// UpdateInode persists inode meta-data synchronously.
func (f *FFS) UpdateInode(t sched.Task, ino *layout.Inode) error {
	f.mu.Lock(t)
	defer f.mu.Unlock(t)
	f.inodes[ino.ID] = ino
	return f.writeInode(t, ino)
}

// FreeInode releases the inode and all its blocks. The on-disk
// record is cleared synchronously — FFS metadata discipline, and
// what makes a deletion durable for the table-scan repair path (a
// lingering record would resurrect the file after a crash).
func (f *FFS) FreeInode(t sched.Task, id core.FileID) error {
	f.mu.Lock(t)
	defer f.mu.Unlock(t)
	ino, err := f.getInodeLocked(t, id)
	if err != nil {
		return err
	}
	for _, a := range ino.Blocks {
		if a >= 0 {
			f.freeDataLocked(a)
		}
	}
	for _, a := range ino.IndAddrs {
		f.freeDataLocked(a)
	}
	g := int(id) / f.cfg.InodesPerGroup
	f.inoBits[g].clear(int(id) % f.cfg.InodesPerGroup)
	f.bitsDirty = true
	delete(f.inodes, id)
	return f.clearInodeRecord(t, id)
}

// clearInodeRecord zeroes one slot of the on-disk inode table.
func (f *FFS) clearInodeRecord(t sched.Task, id core.FileID) error {
	_, blk, slot := f.inodeLoc(id)
	var buf []byte
	if !f.part.Simulated {
		buf = make([]byte, core.BlockSize)
		if err := f.part.Read(t, blk, 1, buf); err != nil {
			return err
		}
		for i := slot * layout.InodeSize; i < (slot+1)*layout.InodeSize; i++ {
			buf[i] = 0
		}
	}
	f.inoWrites.Inc()
	f.durSeq++
	return f.part.Write(t, blk, 1, buf)
}

// allocDataLocked finds one free data block near the hint.
func (f *FFS) allocDataLocked(hint int64) (int64, error) {
	run, err := f.allocRunLocked(hint, 1)
	if err != nil {
		return -1, err
	}
	return run[0], nil
}

// allocRunLocked reserves up to want free data blocks as one
// disk-contiguous run: first the blocks directly after hint (so a
// growing file's appends land adjacent — the contiguity clustered
// transfers feed on), then the first free run of the hint's group
// scanning forward from the hint, then the first free run of any
// group. It returns at least one block; a fragmented bitmap may
// yield fewer than want.
func (f *FFS) allocRunLocked(hint int64, want int) ([]int64, error) {
	if want < 1 {
		want = 1
	}
	// take claims the free run starting at (g, i), bounded by want,
	// the group end and the next allocated block.
	take := func(g, i int) []int64 {
		run := make([]int64, 0, want)
		for len(run) < want && i < f.cfg.BlocksPerGroup && !f.dataBits[g].get(i) {
			f.dataBits[g].set(i)
			f.bitsDirty = true
			f.freeData--
			run = append(run, f.groupBase(g)+int64(i))
			i++
		}
		return run
	}
	var hg, hi = -1, -1
	if hint >= 0 {
		hg = int((hint - 1)) / f.cfg.BlocksPerGroup
		hi = int(hint - f.groupBase(hg))
	}
	if hg >= 0 && hg < f.ngroups {
		// Forward within the hint's group, starting right after it:
		// the first free block found this way extends the hint's run
		// when the neighbor is free, and otherwise stays ahead of the
		// file instead of re-walking the group head.
		for i := max(hi+1, f.dataStart); i < f.cfg.BlocksPerGroup; i++ {
			if !f.dataBits[hg].get(i) {
				return take(hg, i), nil
			}
		}
	}
	for off := 0; off < f.ngroups+1; off++ {
		// The hint's group gets one more pass (its pre-hint half),
		// then every group in order.
		g := hg
		if off > 0 {
			g = off - 1
		}
		if g < 0 || g >= f.ngroups {
			continue
		}
		for i := f.dataStart; i < f.cfg.BlocksPerGroup; i++ {
			if !f.dataBits[g].get(i) {
				return take(g, i), nil
			}
		}
	}
	return nil, core.ErrNoSpace
}

// tailHint returns the address of the file's highest mapped block —
// where the file last grew — or -1 for an empty map. The allocator
// hints with the tail, not Blocks[0]: first-fit from the file's
// first block re-scans a full group head on every append and
// scatters growing files behind other allocations.
func tailHint(ino *layout.Inode) int64 {
	for i := len(ino.Blocks) - 1; i >= 0; i-- {
		if ino.Blocks[i] >= 0 {
			return ino.Blocks[i]
		}
	}
	return -1
}

func (f *FFS) freeDataLocked(addr int64) {
	if addr < 1 {
		return
	}
	g := int((addr - 1)) / f.cfg.BlocksPerGroup
	i := int(addr - f.groupBase(g))
	if g < 0 || g >= f.ngroups || i < f.dataStart || i >= f.cfg.BlocksPerGroup {
		return
	}
	if f.dataBits[g].get(i) {
		f.dataBits[g].clear(i)
		f.bitsDirty = true
		f.freeData++
	}
}

// ReadRunVec implements the clustered read: it probes the inode's
// address array for a disk-contiguous run starting at blk and moves
// the whole run in one device request, scattered into bufs (nil when
// simulated). A hole reads as a single zeroed block.
func (f *FFS) ReadRunVec(t sched.Task, ino *layout.Inode, blk core.BlockNo, n int, bufs [][]byte) (int, error) {
	if lim := f.ClusterRun(); n > lim {
		n = lim
	}
	if len(bufs) == 0 && !f.part.Simulated {
		return 0, core.ErrInval
	}
	if len(bufs) > 0 && n > len(bufs) {
		n = len(bufs)
	}
	f.mu.Lock(t)
	addr := ino.BlockAddr(blk)
	run := 1
	for addr >= 0 && run < n && ino.BlockAddr(blk+core.BlockNo(run)) == addr+int64(run) {
		run++
	}
	f.mu.Unlock(t)
	if addr < 0 {
		if len(bufs) > 0 {
			clear(bufs[0][:core.BlockSize])
		}
		return 1, nil
	}
	f.reads.Add(int64(run))
	return run, f.part.ReadRun(t, addr, run, bufs)
}

// WriteBlocks writes the dirty blocks in place and then the inode
// synchronously. Missing blocks are allocated first, as contiguous
// forward runs off the file's tail, so sequential appends land
// adjacent; the write pass then coalesces block-number-contiguous,
// address-contiguous stretches into single multi-block requests up
// to the clustering cap (cap 1 — the default — is the classic
// one-request-per-block FFS).
func (f *FFS) WriteBlocks(t sched.Task, ino *layout.Inode, writes []layout.BlockWrite) error {
	f.mu.Lock(t)
	defer f.mu.Unlock(t)
	hint := tailHint(ino)
	for i := 0; i < len(writes); {
		if addr := ino.BlockAddr(writes[i].Blk); addr >= 0 {
			hint = addr
			i++
			continue
		}
		// Reserve one run for the whole stretch of consecutive
		// missing file blocks.
		want := 1
		for i+want < len(writes) && writes[i+want].Blk == writes[i].Blk+core.BlockNo(want) &&
			ino.BlockAddr(writes[i+want].Blk) < 0 {
			want++
		}
		run, err := f.allocRunLocked(hint, want)
		if err != nil {
			return err
		}
		for j, addr := range run {
			ino.SetBlockAddr(writes[i+j].Blk, addr)
		}
		hint = run[len(run)-1]
		i += len(run)
	}
	lim := f.ClusterRun()
	for i := 0; i < len(writes); {
		addr := ino.BlockAddr(writes[i].Blk)
		run := 1
		for run < lim && i+run < len(writes) &&
			writes[i+run].Blk == writes[i].Blk+core.BlockNo(run) &&
			ino.BlockAddr(writes[i+run].Blk) == addr+int64(run) {
			run++
		}
		f.writes.Add(int64(run))
		var err error
		if run > 1 && !f.part.Simulated {
			// Scatter-gather straight from the callers' block buffers
			// (cache frames held Flushing-stable for this call): one
			// device request, zero staging copies.
			vec := make([][]byte, run)
			for j := range vec {
				vec[j] = writes[i+j].Data[:core.BlockSize]
			}
			err = f.part.WriteVec(t, addr, run, vec)
		} else {
			// One block, or a simulated run (nil data, timing only).
			err = f.part.Write(t, addr, run, writes[i].Data)
		}
		if err != nil {
			return err
		}
		i += run
	}
	ino.MTime = int64(f.k.Now())
	return f.writeInode(t, ino)
}

// Truncate frees blocks beyond newSize and rewrites the inode.
func (f *FFS) Truncate(t sched.Task, ino *layout.Inode, newSize int64) error {
	f.mu.Lock(t)
	defer f.mu.Unlock(t)
	keep := layout.BlocksForSize(newSize)
	for i := keep; i < int64(len(ino.Blocks)); i++ {
		if ino.Blocks[i] >= 0 {
			f.freeDataLocked(ino.Blocks[i])
		}
	}
	if keep < int64(len(ino.Blocks)) {
		ino.Blocks = ino.Blocks[:keep]
	}
	ino.Size = newSize
	ino.MTime = int64(f.k.Now())
	return f.writeInode(t, ino)
}

// PlaceExisting assigns sticky placement to a pre-existing simulated
// file: a random group position, then the whole free run from there
// — the educated guess matches what FFS's own allocator produces
// (files laid down once are mostly contiguous), so rewrites and
// readahead over pre-existing files see the same run structure real
// allocation would have left.
func (f *FFS) PlaceExisting(t sched.Task, ino *layout.Inode, size int64) error {
	f.mu.Lock(t)
	defer f.mu.Unlock(t)
	if !f.part.Simulated {
		return layout.ErrNoPlaceExisting
	}
	need := layout.BlocksForSize(size)
	rng := f.k.Rand()
	span := f.cfg.BlocksPerGroup - f.dataStart
	for need > 0 {
		placed := false
		g := rng.Intn(f.ngroups)
		for tries := 0; tries < f.ngroups && !placed; tries++ {
			gg := (g + tries) % f.ngroups
			start := rng.Intn(span)
			for i := 0; i < span; i++ {
				idx := f.dataStart + (start+i)%span
				if f.dataBits[gg].get(idx) {
					continue
				}
				// Take the whole free run from the first gap found.
				for need > 0 && idx < f.cfg.BlocksPerGroup && !f.dataBits[gg].get(idx) {
					f.dataBits[gg].set(idx)
					f.freeData--
					ino.SetBlockAddr(core.BlockNo(len(ino.Blocks)), f.groupBase(gg)+int64(idx))
					need--
					idx++
				}
				placed = true
				break
			}
		}
		if !placed {
			return core.ErrNoSpace
		}
	}
	ino.Size = size
	f.inodes[ino.ID] = ino
	return nil
}
