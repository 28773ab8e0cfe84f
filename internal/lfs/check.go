package lfs

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/sched"
)

// usage is the allocation state the reachable file tree implies.
type usage struct {
	live        []int32                 // live blocks per segment
	inodeBlocks map[int64][]core.FileID // inode-block address → the ids packed there
}

// walk is the log's one reachability walk, shared by Check and crash
// recovery. It visits the live inodes in ascending ID order and claims
// each file block, indirect block, inode block and inode-map chunk
// address once. A claim is rejected when the address lies outside
// every segment's data slots (a summary block is never one) or was
// claimed before; each rejection is one finding. In repair mode the
// rejected pointer is cleared — the inode or imap chunk is marked
// dirty so the next segment write and checkpoint reissue it — and an
// unreadable inode is dropped, so what recovery keeps is exactly what
// Check accepts.
func (l *LFS) walk(t sched.Task, repair bool) (usage, []string) {
	u := usage{live: make([]int32, l.nsegs), inodeBlocks: make(map[int64][]core.FileID)}
	var found []string
	reject := func(format string, args ...any) {
		if repair {
			format += ", cleared"
		}
		found = append(found, fmt.Sprintf(format, args...))
	}
	owner := make(map[int64]string)
	claim := func(addr int64, what string) bool {
		seg := -1
		if addr >= l.seg0 && addr < l.segStart(l.nsegs) && addr != l.segStart(l.segOf(addr)) {
			seg = l.segOf(addr)
		}
		switch prev, dup := owner[addr]; {
		case seg < 0:
			reject("%s at %d outside any segment's data slots", what, addr)
		case dup:
			reject("address %d claimed by both %s and %s", addr, prev, what)
		default:
			owner[addr] = what
			u.live[seg]++
			return true
		}
		return false
	}

	for _, id := range l.liveIDs() {
		ent := l.imap[id]
		ino, err := l.getInodeLocked(t, id)
		if err != nil {
			msg := fmt.Sprintf("inode %d unreadable: %v", id, err)
			if repair {
				// Corruption past what roll-forward repairs: drop the
				// file rather than the volume.
				msg += ", dropped"
				ent.addr = -1
				ent.version++
				l.imapDirty[int(id)/imapPerChunk] = true
				delete(l.inodes, id)
				delete(l.dirtyInodes, id)
			}
			found = append(found, msg)
			continue
		}
		for b, addr := range ino.Blocks {
			if addr >= 0 && !claim(addr, fmt.Sprintf("f%d/b%d", id, b)) && repair {
				ino.Blocks[b] = -1
				l.dirtyInodes[id] = true
			}
		}
		kept := make([]int64, 0, len(ino.IndAddrs))
		for i, addr := range ino.IndAddrs {
			if claim(addr, fmt.Sprintf("f%d/ind%d", id, i)) {
				kept = append(kept, addr)
			}
		}
		if repair && len(kept) < len(ino.IndAddrs) {
			ino.IndAddrs = kept // packing the dirty inode reissues the map
			l.dirtyInodes[id] = true
		}
		if ent.addr >= 0 {
			u.inodeBlocks[ent.addr] = append(u.inodeBlocks[ent.addr], id)
		}
	}
	// Inode blocks are shared: claim each once, after the file blocks.
	addrs := make([]int64, 0, len(u.inodeBlocks))
	for a := range u.inodeBlocks {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		if claim(a, fmt.Sprintf("inode-block@%d", a)) || !repair {
			continue
		}
		for _, id := range u.inodeBlocks[a] {
			l.imap[id].addr = -1 // repacked from memory
			l.imapDirty[int(id)/imapPerChunk] = true
			l.dirtyInodes[id] = true
		}
		delete(u.inodeBlocks, a)
	}
	for c, a := range l.imapAddr {
		if a >= 0 && !claim(a, fmt.Sprintf("imap-chunk%d", c)) && repair {
			l.imapAddr[c] = -1 // the checkpoint rewrites it
			l.imapDirty[c] = true
		}
	}
	return u, found
}

// Check is the layout's fsck: the reachability walk, then a comparison
// of what it found with the live tables. It verifies that
//
//   - every file block, indirect block, inode block and inode-map
//     chunk address is in range and not on a summary block,
//   - no address is claimed twice,
//   - every reachable block lies in an in-use (or the open) segment,
//     and the usage table's live counts equal the walk's recount,
//   - the free list is exact: free state, no duplicates, not the
//     open segment.
//
// Recovery runs the same walk in repair mode, so a volume it leaves
// passes. Check returns every violation found (nil means consistent).
func (l *LFS) Check(t sched.Task) []error {
	l.mu.Lock(t)
	defer l.mu.Unlock(t)

	u, found := l.walk(t, false)
	var errs []error
	bad := func(f string, args ...any) {
		errs = append(errs, fmt.Errorf("lfs %s: "+f, append([]any{l.name}, args...)...))
	}
	for _, f := range found {
		bad("%s", f)
	}
	for seg, si := range l.sut {
		switch {
		case si.state == segFree:
			if u.live[seg] != 0 {
				bad("free segment %d has %d reachable blocks", seg, u.live[seg])
			}
		case si.state != segInUse && si.state != segCurrent:
			bad("segment %d has state %d", seg, si.state)
		case si.live != u.live[seg]:
			bad("segment %d usage: table says %d live, recount %d", seg, si.live, u.live[seg])
		}
	}

	seen := map[int]bool{}
	for _, s := range l.freeSegs {
		if s < 0 || s >= l.nsegs {
			bad("free list holds invalid segment %d", s)
			continue
		}
		if seen[s] {
			bad("segment %d on free list twice", s)
		}
		seen[s] = true
		if l.sut[s].state != segFree {
			bad("free-listed segment %d has state %d", s, l.sut[s].state)
		}
		if l.cur != nil && s == l.cur.seg {
			bad("open segment %d is on the free list", s)
		}
	}
	for seg := 0; seg < l.nsegs; seg++ {
		if l.sut[seg].state == segFree && !seen[seg] {
			bad("free segment %d missing from free list", seg)
		}
	}
	return errs
}

// recountLocked is recovery's half of the walk: it runs it in repair
// mode and adopts what it implies — the usage table, the free list and
// the inode-block index — returning the repairs made.
func (l *LFS) recountLocked(t sched.Task) []string {
	u, repairs := l.walk(t, true)
	l.freeSegs = l.freeSegs[:0]
	for seg := 0; seg < l.nsegs; seg++ {
		if u.live[seg] == 0 {
			l.sut[seg] = segInfo{state: segFree}
			l.freeSegs = append(l.freeSegs, seg)
			continue
		}
		l.sut[seg].live, l.sut[seg].state = u.live[seg], segInUse
	}
	l.inodeBlockIDs = u.inodeBlocks
	return repairs
}

// liveIDs lists the live inodes — on disk or still only in memory —
// in ascending order.
func (l *LFS) liveIDs() []core.FileID {
	ids := make([]core.FileID, 0, len(l.imap))
	for id, ent := range l.imap {
		if ent.addr >= 0 || l.inodes[id] != nil {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
