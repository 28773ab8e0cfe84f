package volume

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/sched"
)

// This file is the array-wide crash-recovery pass. The members
// recover independently (LFS roll-forward, FFS repair), but a crash
// can also break the *array's* invariants: the lockstep inode
// allocators drift when the cut lands between per-member operations
// of one fan-out, a file can be allocated on some members only, and
// a file's shadow sizes can disagree with the global size its
// carriers hold. Recover heals all of it and cross-checks the
// per-member geometry labels.

// Recover brings the whole array back: recover every
// member, validate the labels, re-sync the lockstep allocators, roll
// back half-made allocations, repair the shadow-size invariant and,
// under redundancy, re-converge copies and parity with a repairing
// scrub. A lockstep array ends with a full sync so the repairs are
// durable; a lone member's own recovery is the whole of it.
func (a *Array) Recover(t sched.Task) (layout.RecoveryStats, error) {
	var st layout.RecoveryStats
	for i := range a.subs {
		if int(a.deadIdx.Load()) == i {
			continue // dead member: rebuild recovers it onto a replacement
		}
		sst, err := a.sub(i).Recover(t)
		if err != nil {
			return st, fmt.Errorf("volume %s: recover sub %d: %w", a.name, i, err)
		}
		st.Add(sst)
	}
	if a.labeled {
		if err := a.readLabel(t); err != nil {
			return st, err
		}
		if err := a.resyncLockstep(t, &st); err != nil {
			return st, err
		}
		if a.pl.owned() {
			if err := a.repairShadows(t, &st); err != nil {
				return st, err
			}
		}
		if a.pl.redundant() {
			// Copies and parity columns re-converge (data is the
			// authority).
			sst, err := a.Scrub(t, true)
			if err != nil {
				return st, err
			}
			if sst.Mismatches > 0 {
				st.Repairs = append(st.Repairs, fmt.Sprintf(
					"scrub: %d redundancy violation(s), %d repaired (torn redundant write)", sst.Mismatches, sst.Repaired))
			}
		}
	}
	if !a.lockstep {
		return st, nil
	}
	// Make the repairs durable (and write the labels if the crash
	// predated the first sync).
	return st, a.Sync(t)
}

// GrowSize publishes a size growth. In affinity mode the global
// inode is the home member's own, so the growth must happen under
// that member's lock; otherwise the array owns it and af.mu — the lock
// the carrier-size mirror reads under — covers it.
func (a *Array) GrowSize(t sched.Task, ino *layout.Inode, size int64) {
	af := a.lookup(t, ino.ID)
	if af == nil {
		if size > ino.Size {
			ino.Size = size
		}
		return
	}
	if !a.pl.owned() {
		a.subs[af.home].GrowSize(t, af.global, size)
		return
	}
	af.mu.Lock(t)
	if size > af.global.Size {
		af.global.Size = size
	}
	af.mu.Unlock(t)
}

// WithInode runs fn with the same routing as GrowSize: affinity mode
// under the home member's lock (the global inode is the member's
// own), otherwise under af.mu, the lock the carrier-size mirror reads
// under.
func (a *Array) WithInode(t sched.Task, ino *layout.Inode, fn func()) {
	af := a.lookup(t, ino.ID)
	if af == nil {
		fn()
		return
	}
	if !a.pl.owned() {
		a.subs[af.home].WithInode(t, af.global, fn)
		return
	}
	af.mu.Lock(t)
	fn()
	af.mu.Unlock(t)
}

// WriteBarrier implements layout.Barrier: every member that stages
// writes flushes them to stable storage.
func (a *Array) WriteBarrier(t sched.Task) error {
	s := a.parityBarrierStart()
	for i := range a.subs {
		if !a.writeAlive(i) {
			continue
		}
		if b, ok := a.sub(i).(layout.Barrier); ok {
			if err := b.WriteBarrier(t); err != nil {
				// Lazy fault detection, like the read and write paths: a
				// member whose log push dies at the hardware is marked
				// dead and skipped — its staged writes die with it, and
				// the copies/parity on the surviving members (whose own
				// barriers still run) carry the data until the rebuild.
				if a.noteDeadErr(i, err) {
					continue
				}
				return fmt.Errorf("volume %s: barrier sub %d: %w", a.name, i, err)
			}
		}
	}
	// Every member committed the writes it held when the barrier
	// began, so partial-parity records armed before it are fully on
	// the media — on every member — and can retire.
	a.parityBarrierDone(s)
	return nil
}

// DurableSeq is the minimum over the members, so the watermark only
// advances when every member's covering checkpoint is durable.
func (a *Array) DurableSeq(t sched.Task) uint64 {
	var minSeq uint64
	first := true
	for i := range a.subs {
		if !a.writeAlive(i) {
			// A dead member can never checkpoint again; waiting on it
			// would stall intent retirement forever. The survivors'
			// durability is what the redundant array's data rests on.
			continue
		}
		s := a.sub(i).DurableSeq(t)
		if first || s < minSeq {
			minSeq = s
			first = false
		}
	}
	return minSeq
}

// resyncLockstep restores the invariant that every live inode exists
// on the members that need it and that sequential allocators agree.
func (a *Array) resyncLockstep(t sched.Task, st *layout.RecoveryStats) error {
	dead := int(a.deadIdx.Load())
	present := make([]map[core.FileID]bool, len(a.subs))
	for i := range a.subs {
		if i == dead {
			continue // dead member: nothing to enumerate (nil entry)
		}
		present[i] = make(map[core.FileID]bool)
		for _, id := range a.sub(i).LiveInodes(t) {
			present[i][id] = true
		}
	}
	union := map[core.FileID]bool{}
	for _, p := range present {
		for id := range p {
			union[id] = true
		}
	}
	ids := make([]core.FileID, 0, len(union))
	for id := range union {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	for _, id := range ids {
		if id == core.RootFile || id == labelFileID {
			// Array metadata: must exist everywhere or the mount/label
			// checks would have failed already.
			continue
		}
		home := a.home(id)
		missingAny, missingHome := false, false
		for i := range a.subs {
			if i == dead {
				continue // the rebuild recreates its shadows
			}
			if !present[i][id] {
				missingAny = true
				if i == home {
					missingHome = true
				}
			}
		}
		// A file is unusable when its home copy is gone (affinity: all
		// data lives there) or, array-owned, when any member's share is
		// gone. Roll the half-made allocation back everywhere.
		if (a.pl.owned() && missingAny) || (!a.pl.owned() && missingHome) {
			for i := range a.subs {
				if !present[i][id] {
					continue
				}
				if err := a.sub(i).FreeInode(t, id); err != nil && !errors.Is(err, core.ErrNotFound) {
					return fmt.Errorf("volume %s: roll back inode %d on sub %d: %w", a.name, id, i, err)
				}
			}
			st.Repairs = append(st.Repairs,
				fmt.Sprintf("rolled back half-allocated inode %d (lockstep broken by the crash)", id))
			continue
		}
		if missingAny {
			// Affinity with intact home: non-home shadows are empty
			// bookkeeping, their absence is tolerated by FreeInode.
			st.Repairs = append(st.Repairs,
				fmt.Sprintf("inode %d missing a non-home shadow; kept (home copy intact)", id))
		}
	}

	// Align sequential allocation cursors to the furthest member so
	// lockstep allocation resumes identically everywhere.
	cur, moved := a.maxCursor(t), false
	for i := range a.subs {
		if i != dead && a.sub(i).InodeCursor(t) != cur {
			a.sub(i).SetInodeCursor(t, cur)
			moved = true
		}
	}
	if moved {
		st.Repairs = append(st.Repairs, fmt.Sprintf("re-synced lockstep inode cursors to %d", cur))
	}
	return nil
}

// maxCursor is the furthest sequential-allocator position among the
// live members (0 when they have none).
func (a *Array) maxCursor(t sched.Task) uint64 {
	var cur uint64
	for i := range a.subs {
		if i != int(a.deadIdx.Load()) {
			cur = max(cur, a.sub(i).InodeCursor(t))
		}
	}
	return cur
}

// liveInodes lists the live inode numbers of the first live member.
func (a *Array) liveInodes(t sched.Task) []core.FileID {
	for i := range a.subs {
		if i != int(a.deadIdx.Load()) {
			return a.sub(i).LiveInodes(t)
		}
	}
	return nil
}

// repairShadows restores the shadow-size invariant: the carriers hold
// the global size — whichever got further, clamped down to the largest
// extent every live member fully backs when a member lost its
// rolled-forward share tail — and every other member's shadow covers
// exactly its share, trimming orphaned chunks beyond it.
func (a *Array) repairShadows(t sched.Task, st *layout.RecoveryStats) error {
	dead := int(a.deadIdx.Load())
	for _, id := range a.liveInodes(t) {
		if id == core.RootFile || id == labelFileID {
			continue
		}
		home := a.home(id)
		shadows := make([]*layout.Inode, len(a.subs))
		missing := false
		for i := range a.subs {
			if i == dead {
				continue
			}
			ino, err := a.sub(i).GetInode(t, id)
			if err != nil {
				missing = true // rolled back above, or directory-only
				break
			}
			shadows[i] = ino
		}
		if missing {
			continue
		}
		var hsize int64
		for i := 0; i < a.pl.carriers(); i++ {
			if sh := shadows[a.pl.carrier(home, i)]; sh != nil {
				hsize = max(hsize, sh.Size)
			}
		}
		backed := func(blocks int64) bool {
			for s, sh := range shadows {
				if sh != nil && a.pl.localBlocks(home, s, blocks)*core.BlockSize > sh.Size {
					return false
				}
			}
			return true
		}
		total := layout.BlocksForSize(hsize)
		covered := total
		for covered > 0 && !backed(covered) {
			covered--
		}
		newSize := hsize
		if covered < total {
			newSize = covered * core.BlockSize
			st.Repairs = append(st.Repairs, fmt.Sprintf(
				"inode %d: global size %d not fully backed, clamped to %d (a member lost its share tail)",
				id, hsize, newSize))
		}
		keep := layout.BlocksForSize(newSize)
		for s, sh := range shadows {
			need := a.pl.localBlocks(home, s, keep) * core.BlockSize
			if a.pl.isCarrier(home, s) {
				need = newSize
			}
			if sh == nil || sh.Size == need {
				continue
			}
			if sh.Size > need && !a.pl.isCarrier(home, s) {
				st.Repairs = append(st.Repairs, fmt.Sprintf(
					"inode %d: trimmed member %d shadow from %d to %d bytes (orphaned chunks)", id, s, sh.Size, need))
			}
			if err := a.sub(s).Truncate(t, sh, need); err != nil {
				return fmt.Errorf("volume %s: repair shadow of inode %d on sub %d: %w", a.name, id, s, err)
			}
			if err := a.sub(s).UpdateInode(t, sh); err != nil {
				return err
			}
		}
	}
	return nil
}
