package ffs

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/sched"
)

// This file is the FFS consistency machinery. FFS writes inode
// records synchronously but defers its allocation bitmaps to Sync,
// so a crash leaves the inode table authoritative and the bitmaps
// stale — the classic fsck situation. Check reports the divergence;
// Repair rebuilds the bitmaps (and the in-memory state) from a full
// scan of the inode table, bringing the volume to a mountable state
// that Check then accepts.

// Check verifies the layout's invariants against the reachable file
// tree:
//
//   - every allocated inode has a readable record (real volumes),
//   - every block and indirect pointer is in range, inside a group's
//     data area, and marked used in the data bitmap,
//   - no two files claim the same block,
//   - no data block is marked used without a claimant (leaks),
//   - no inode record exists for a bitmap-free inode number.
//
// It returns every violation found (nil means consistent).
func (f *FFS) Check(t sched.Task) []error {
	f.mu.Lock(t)
	defer f.mu.Unlock(t)

	var errs []error
	bad := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("ffs %s: "+format, append([]any{f.name}, args...)...))
	}

	// Torn bitmap writes found at Mount (checksum mismatches).
	for _, m := range f.tornMeta {
		bad("%s", m)
	}

	owner := map[int64]string{}
	claimed := map[int64]bool{}
	claim := func(addr int64, what string) {
		g, i, ok := f.locateData(addr)
		if !ok {
			bad("%s at %d outside any group's data area", what, addr)
			return
		}
		if prev, dup := owner[addr]; dup {
			bad("address %d claimed by both %s and %s", addr, prev, what)
			return
		}
		owner[addr] = what
		claimed[addr] = true
		if !f.dataBits[g].get(i) {
			bad("%s at %d is free in the data bitmap", what, addr)
		}
	}

	// One pass over the on-disk inode table (real volumes) records
	// which slots hold a live record.
	recorded := map[core.FileID]bool{}
	if !f.part.Simulated {
		buf := make([]byte, core.BlockSize)
		for g := 0; g < f.ngroups; g++ {
			for tb := 0; tb < f.itblks; tb++ {
				if err := f.part.Read(t, f.groupBase(g)+gInoTable+int64(tb), 1, buf); err != nil {
					bad("inode table read (group %d block %d): %v", g, tb, err)
					continue
				}
				for slot := 0; slot < layout.InodesPerBlk; slot++ {
					id := core.FileID(g*f.cfg.InodesPerGroup + tb*layout.InodesPerBlk + slot)
					if di, err := layout.DecodeInode(buf[slot*layout.InodeSize:]); err == nil &&
						di.Ino.ID == id && di.Ino.Type != core.TypeFree {
						recorded[id] = true
					}
				}
			}
		}
	}

	for g := 0; g < f.ngroups; g++ {
		for i := 0; i < f.cfg.InodesPerGroup; i++ {
			if g == 0 && i < int(core.RootFile) {
				continue // reserved inodes 0 and 1
			}
			id := core.FileID(g*f.cfg.InodesPerGroup + i)
			if !f.inoBits[g].get(i) {
				// A record on disk for a bitmap-free inode: the
				// allocation outlived a lost bitmap write.
				if recorded[id] {
					bad("inode %d has an on-disk record but is free in the inode bitmap", id)
				}
				continue
			}
			ino, err := f.getInodeLocked(t, id)
			if err != nil {
				bad("allocated inode %d unreadable: %v", id, err)
				continue
			}
			for b, addr := range ino.Blocks {
				if addr >= 0 {
					claim(addr, fmt.Sprintf("f%d/b%d", id, b))
				}
			}
			for x, addr := range ino.IndAddrs {
				claim(addr, fmt.Sprintf("f%d/ind%d", id, x))
			}
		}
	}

	// Leaks: used data bits nobody claims.
	for g := 0; g < f.ngroups; g++ {
		leaks := 0
		for i := f.dataStart; i < f.cfg.BlocksPerGroup; i++ {
			if f.dataBits[g].get(i) && !claimed[f.groupBase(g)+int64(i)] {
				leaks++
			}
		}
		if leaks > 0 {
			bad("group %d leaks %d data blocks (marked used, unreachable)", g, leaks)
		}
	}
	return errs
}

// locateData maps a partition-relative address into (group, offset)
// and reports whether it lies in a data area.
func (f *FFS) locateData(addr int64) (g, i int, ok bool) {
	if addr < 1 {
		return 0, 0, false
	}
	g = int(addr-1) / f.cfg.BlocksPerGroup
	if g < 0 || g >= f.ngroups {
		return 0, 0, false
	}
	i = int(addr - f.groupBase(g))
	if i < f.dataStart || i >= f.cfg.BlocksPerGroup {
		return 0, 0, false
	}
	return g, i, true
}

// Repair is the fsck write pass: it scans the on-disk inode table —
// the synchronously-written truth — and rebuilds both allocation
// bitmaps, the free count and the in-memory tables from it. Stale
// bitmap state (the normal crash damage: Sync never ran) is healed;
// resurrected allocations and reclaimed blocks are reported. The
// rebuilt bitmaps are written back and the volume is mounted.
func (f *FFS) Repair(t sched.Task) ([]string, error) {
	f.mu.Lock(t)
	defer f.mu.Unlock(t)
	if f.part.Simulated {
		return nil, fmt.Errorf("ffs %s: Repair needs a real volume", f.name)
	}
	var notes []string
	notef := func(format string, args ...any) {
		notes = append(notes, fmt.Sprintf(format, args...))
	}

	newIno := make([]bitset, f.ngroups)
	newData := make([]bitset, f.ngroups)
	for g := 0; g < f.ngroups; g++ {
		newIno[g] = make(bitset, core.BlockSize)
		newData[g] = make(bitset, core.BlockSize)
		for i := 0; i < f.dataStart; i++ {
			newData[g].set(i)
		}
	}
	newIno[0].set(0)
	newIno[0].set(1)

	owner := map[int64]core.FileID{}
	f.inodes = make(map[core.FileID]*layout.Inode)
	var rewrite []core.FileID // inodes with cleared pointers, written back after bitmap adoption
	buf := make([]byte, core.BlockSize)
	for g := 0; g < f.ngroups; g++ {
		for tb := 0; tb < f.itblks; tb++ {
			blk := f.groupBase(g) + gInoTable + int64(tb)
			if err := f.part.Read(t, blk, 1, buf); err != nil {
				return notes, err
			}
			for slot := 0; slot < layout.InodesPerBlk; slot++ {
				id := core.FileID(g*f.cfg.InodesPerGroup + tb*layout.InodesPerBlk + slot)
				di, err := layout.DecodeInode(buf[slot*layout.InodeSize:])
				if err != nil || di.Ino.ID != id || di.Ino.Type == core.TypeFree {
					continue // empty or garbage slot
				}
				ino := &di.Ino
				if err := f.loadBlockMap(t, ino, di); err != nil {
					notef("inode %d: unreadable block map, dropped: %v", id, err)
					continue
				}
				dirtyIno := false
				for b := range ino.Blocks {
					addr := ino.Blocks[b]
					if addr < 0 {
						continue
					}
					gg, i, ok := f.locateData(addr)
					if !ok {
						notef("inode %d block %d: address %d out of range, cleared", id, b, addr)
						ino.Blocks[b] = -1
						dirtyIno = true
						continue
					}
					if prev, dup := owner[addr]; dup {
						notef("inode %d block %d: address %d already owned by inode %d, cleared", id, b, addr, prev)
						ino.Blocks[b] = -1
						dirtyIno = true
						continue
					}
					owner[addr] = id
					newData[gg].set(i)
				}
				// Indirect map blocks get the same duplicate/range
				// policy as data: a cross-linked or wild pointer is
				// dropped, and the rewrite below reissues the map
				// from the flat block list into fresh blocks.
				keptInd := ino.IndAddrs[:0]
				for x, addr := range ino.IndAddrs {
					gg, i, ok := f.locateData(addr)
					if !ok {
						notef("inode %d indirect %d: address %d out of range, reissued", id, x, addr)
						dirtyIno = true
						continue
					}
					if prev, dup := owner[addr]; dup {
						notef("inode %d indirect %d: address %d already owned by inode %d, reissued", id, x, addr, prev)
						dirtyIno = true
						continue
					}
					owner[addr] = id
					newData[gg].set(i)
					keptInd = append(keptInd, addr)
				}
				ino.IndAddrs = keptInd
				newIno[g].set(int(id) % f.cfg.InodesPerGroup)
				f.inodes[id] = ino
				if !f.inoBits[g].get(int(id) % f.cfg.InodesPerGroup) {
					notef("inode %d: resurrected from the table (bitmap said free)", id)
				}
				if dirtyIno {
					rewrite = append(rewrite, id)
				}
			}
		}
	}

	// Diff the data bitmaps for the report, then adopt the rebuild.
	reclaimed, adopted := 0, 0
	for g := 0; g < f.ngroups; g++ {
		for i := f.dataStart; i < f.cfg.BlocksPerGroup; i++ {
			was, now := f.dataBits[g].get(i), newData[g].get(i)
			switch {
			case was && !now:
				reclaimed++
			case !was && now:
				adopted++
			}
		}
	}
	if reclaimed > 0 {
		notef("reclaimed %d leaked data blocks", reclaimed)
	}
	if adopted > 0 {
		notef("marked %d reachable data blocks used (bitmap said free)", adopted)
	}
	// Drop bitmap-only inode allocations the table does not back.
	for g := 0; g < f.ngroups; g++ {
		for i := 0; i < f.cfg.InodesPerGroup; i++ {
			if g == 0 && i < int(core.RootFile) {
				continue
			}
			if f.inoBits[g].get(i) && !newIno[g].get(i) {
				notef("inode %d: allocation without a record, freed", g*f.cfg.InodesPerGroup+i)
			}
		}
	}
	if len(f.tornMeta) > 0 {
		notef("rewrote %d torn bitmap blocks from the inode table", len(f.tornMeta))
		f.tornMeta = nil
	}
	f.inoBits = newIno
	f.dataBits = newData
	f.freeData = 0
	for g := 0; g < f.ngroups; g++ {
		for i := f.dataStart; i < f.cfg.BlocksPerGroup; i++ {
			if !f.dataBits[g].get(i) {
				f.freeData++
			}
		}
	}
	// Rewrite inodes whose pointers were cleared, now that block
	// allocation runs against the rebuilt bitmaps.
	for _, id := range rewrite {
		if err := f.writeInode(t, f.inodes[id]); err != nil {
			return notes, err
		}
	}
	if err := f.syncBitmaps(t); err != nil {
		return notes, err
	}
	f.mounted = true
	sort.Strings(notes)
	return notes, nil
}

// Recover repairs a crashed volume: mount from the superblock,
// then repair the bitmaps from the inode table. On simulated volumes
// — whose state survives in memory — it charges the scan I/O a real
// repair performs and rewrites the bitmaps, the recovery-time model
// the reliability study measures.
func (f *FFS) Recover(t sched.Task) (layout.RecoveryStats, error) {
	var st layout.RecoveryStats
	if f.part.Simulated {
		f.mu.Lock(t)
		defer f.mu.Unlock(t)
		if f.inoBits == nil {
			return st, fmt.Errorf("ffs %s: simulated recovery requires Format first", f.name)
		}
		if err := f.part.Read(t, 0, 1, nil); err != nil {
			return st, err
		}
		for g := 0; g < f.ngroups; g++ {
			// Bitmaps plus the full inode table of every group.
			if err := f.part.Read(t, f.groupBase(g), f.dataStart, nil); err != nil {
				return st, err
			}
		}
		if err := f.syncBitmaps(t); err != nil {
			return st, err
		}
		f.mounted = true
		return st, nil
	}
	if err := f.Mount(t); err != nil {
		return st, err
	}
	notes, err := f.Repair(t)
	st.Repairs = notes
	st.InodeRecords = len(f.inodes)
	return st, err
}

// GrowSize publishes a size growth: the size grows under f.mu, the
// lock the inode writer holds when it encodes the record.
func (f *FFS) GrowSize(t sched.Task, ino *layout.Inode, size int64) {
	f.mu.Lock(t)
	defer f.mu.Unlock(t)
	if size > ino.Size {
		ino.Size = size
	}
}

// WithInode is the inode publication lock: fn runs under f.mu, the
// lock the inode writer holds when it encodes the record.
func (f *FFS) WithInode(t sched.Task, ino *layout.Inode, fn func()) {
	f.mu.Lock(t)
	defer f.mu.Unlock(t)
	fn()
}

// LiveInodes implements layout.Member.
func (f *FFS) LiveInodes(t sched.Task) []core.FileID {
	f.mu.Lock(t)
	defer f.mu.Unlock(t)
	var ids []core.FileID
	for g := 0; g < f.ngroups; g++ {
		for i := 0; i < f.cfg.InodesPerGroup; i++ {
			if g == 0 && i < int(core.RootFile) {
				continue
			}
			if f.inoBits[g].get(i) {
				ids = append(ids, core.FileID(g*f.cfg.InodesPerGroup+i))
			}
		}
	}
	return ids
}

// InodeCursor implements layout.Member: 0, FFS has no sequential
// allocator (inodes spread by group).
func (f *FFS) InodeCursor(sched.Task) uint64 { return 0 }

// SetInodeCursor implements layout.Member as a no-op.
func (f *FFS) SetInodeCursor(sched.Task, uint64) {}
