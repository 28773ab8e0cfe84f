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
// stale — the classic fsck situation. One reachability walk over the
// inode table rebuilds the bitmaps the records imply. Check is that
// walk plus a comparison with the live bitmaps; crash recovery is the
// walk in repair mode plus adopting what it rebuilt, so a volume
// recovery leaves is one Check accepts.

// tree is the allocation state the reachable file tree implies.
type tree struct {
	inoBits, dataBits []bitset
	inodes            map[core.FileID]*layout.Inode
	cleared           []core.FileID // repair: records whose rejected pointers were cleared
	dropped           []core.FileID // repair: records whose block map is unreadable
}

// walk is the layout's one reachability walk. It visits the inode
// records in ascending ID order — the on-disk inode table on a real
// partition (a record the volume holds in memory is walked as held),
// the in-memory inodes on a simulated one — and claims each block and
// indirect-block address once. A claim outside every group's data
// area, or of an address claimed before, is rejected with one
// finding; in repair mode the pointer is cleared, and a record whose
// block map cannot be read is dropped.
func (f *FFS) walk(t sched.Task, repair bool) (tree, []string, error) {
	w := tree{inoBits: make([]bitset, f.ngroups), dataBits: make([]bitset, f.ngroups),
		inodes: make(map[core.FileID]*layout.Inode)}
	for g := 0; g < f.ngroups; g++ {
		w.inoBits[g] = make(bitset, core.BlockSize)
		w.dataBits[g] = make(bitset, core.BlockSize)
		for i := 0; i < f.dataStart; i++ {
			w.dataBits[g].set(i)
		}
	}
	w.inoBits[0].set(0)
	w.inoBits[0].set(1)
	var found []string
	reject := func(format string, args ...any) {
		if repair {
			format += ", cleared"
		}
		found = append(found, fmt.Sprintf(format, args...))
	}
	owner := map[int64]string{}
	claim := func(addr int64, what string) bool {
		g, i, ok := f.locateData(addr)
		switch prev, dup := owner[addr]; {
		case !ok:
			reject("%s at %d outside any group's data area", what, addr)
		case dup:
			reject("address %d claimed by both %s and %s", addr, prev, what)
		default:
			owner[addr] = what
			w.dataBits[g].set(i)
			return true
		}
		return false
	}
	visit := func(id core.FileID, ino *layout.Inode) {
		dirty := false
		for b, addr := range ino.Blocks {
			if addr >= 0 && !claim(addr, fmt.Sprintf("f%d/b%d", id, b)) && repair {
				ino.Blocks[b] = -1
				dirty = true
			}
		}
		kept := make([]int64, 0, len(ino.IndAddrs))
		for x, addr := range ino.IndAddrs {
			if claim(addr, fmt.Sprintf("f%d/ind%d", id, x)) {
				kept = append(kept, addr)
			}
		}
		if repair && len(kept) < len(ino.IndAddrs) {
			ino.IndAddrs = kept // the rewrite reissues the map
			dirty = true
		}
		if dirty {
			w.cleared = append(w.cleared, id)
		}
		w.inoBits[int(id)/f.cfg.InodesPerGroup].set(int(id) % f.cfg.InodesPerGroup)
		w.inodes[id] = ino
	}

	if f.part.Simulated {
		ids := make([]core.FileID, 0, len(f.inodes))
		for id := range f.inodes {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			visit(id, f.inodes[id])
		}
		return w, found, nil
	}
	buf := make([]byte, core.BlockSize)
	for g := 0; g < f.ngroups; g++ {
		for tb := 0; tb < f.itblks; tb++ {
			if err := f.part.Read(t, f.groupBase(g)+gInoTable+int64(tb), 1, buf); err != nil {
				if repair {
					return w, found, err
				}
				found = append(found, fmt.Sprintf("inode table read (group %d block %d): %v", g, tb, err))
				continue
			}
			for slot := 0; slot < layout.InodesPerBlk; slot++ {
				id := core.FileID(g*f.cfg.InodesPerGroup + tb*layout.InodesPerBlk + slot)
				di, err := layout.DecodeInode(buf[slot*layout.InodeSize:])
				if err != nil || di.Ino.ID != id || di.Ino.Type == core.TypeFree {
					continue // empty or garbage slot
				}
				ino := f.inodes[id]
				if ino == nil {
					ino = &di.Ino
					if err := f.loadBlockMap(t, ino, di); err != nil {
						msg := fmt.Sprintf("inode %d: unreadable block map: %v", id, err)
						if repair {
							msg += ", dropped"
							w.dropped = append(w.dropped, id)
						}
						found = append(found, msg)
						continue
					}
				}
				visit(id, ino)
			}
		}
	}
	return w, found, nil
}

// compare names every difference between the live bitmaps and the
// walk's: a torn bitmap block found at Mount, a record for an inode
// the bitmap calls free, an allocation without a record, reachable
// blocks marked free, and leaks (blocks marked used that nothing
// reaches).
func (f *FFS) compare(w tree) []string {
	diffs := append([]string(nil), f.tornMeta...)
	for g := 0; g < f.ngroups; g++ {
		for i := 0; i < f.cfg.InodesPerGroup; i++ {
			id := g*f.cfg.InodesPerGroup + i
			if id < int(core.RootFile) {
				continue // reserved inodes 0 and 1
			}
			switch was, now := f.inoBits[g].get(i), w.inoBits[g].get(i); {
			case now && !was:
				diffs = append(diffs, fmt.Sprintf("inode %d has a record but is free in the inode bitmap", id))
			case was && !now:
				diffs = append(diffs, fmt.Sprintf("inode %d is allocated in the inode bitmap but has no record", id))
			}
		}
		leaks, unmarked := 0, 0
		for i := f.dataStart; i < f.cfg.BlocksPerGroup; i++ {
			switch was, now := f.dataBits[g].get(i), w.dataBits[g].get(i); {
			case was && !now:
				leaks++
			case now && !was:
				unmarked++
			}
		}
		if leaks > 0 {
			diffs = append(diffs, fmt.Sprintf("group %d leaks %d data blocks (marked used, unreachable)", g, leaks))
		}
		if unmarked > 0 {
			diffs = append(diffs, fmt.Sprintf("group %d has %d reachable data blocks free in the data bitmap", g, unmarked))
		}
	}
	return diffs
}

// Check is the layout's fsck: the reachability walk, then a comparison
// with the live bitmaps. It verifies that
//
//   - every block and indirect pointer lies inside a group's data area,
//   - no two pointers claim the same block,
//   - every claimed block is marked used in the data bitmap,
//   - no data block is marked used without a claimant (leaks),
//   - no inode record exists for a bitmap-free inode number,
//   - every allocated inode has a record (real volumes: in the table),
//   - no bitmap block was torn (checksum mismatch at Mount).
//
// It returns every violation found (nil means consistent).
func (f *FFS) Check(t sched.Task) []error {
	f.mu.Lock(t)
	defer f.mu.Unlock(t)
	w, found, _ := f.walk(t, false)
	var errs []error
	for _, m := range append(found, f.compare(w)...) {
		errs = append(errs, fmt.Errorf("ffs %s: %s", f.name, m))
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

// repair is the fsck write pass: the walk in repair mode over the
// on-disk inode table — the synchronously written truth — whose
// rebuilt bitmaps, free count and inode table the volume adopts.
// Every difference from the stale bitmaps is reported (the normal
// crash damage: Sync never ran), records with cleared pointers are
// rewritten, dropped records are zeroed, and the bitmaps are written
// back.
func (f *FFS) repair(t sched.Task) ([]string, error) {
	f.mu.Lock(t)
	defer f.mu.Unlock(t)
	f.inodes = make(map[core.FileID]*layout.Inode)
	w, notes, err := f.walk(t, true)
	if err != nil {
		return notes, err
	}
	notes = append(notes, f.compare(w)...)
	f.inoBits, f.dataBits, f.inodes, f.tornMeta = w.inoBits, w.dataBits, w.inodes, nil
	f.countFree()
	// Rewrite records now that allocation runs against the rebuilt
	// bitmaps (a reissued indirect map takes fresh blocks).
	for _, id := range w.cleared {
		if err := f.writeInode(t, f.inodes[id]); err != nil {
			return notes, err
		}
	}
	for _, id := range w.dropped {
		if err := f.clearInodeRecord(t, id); err != nil {
			return notes, err
		}
	}
	if err := f.syncBitmaps(t); err != nil {
		return notes, err
	}
	f.mounted = true
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
	notes, err := f.repair(t)
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
