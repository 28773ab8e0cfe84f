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
// a striped file's shadow sizes can disagree with the global size
// the home shadow carries. Recover heals all of it and cross-checks
// the per-member geometry labels.

// Recover brings the whole array back: recover every
// member, validate the labels, re-sync the lockstep allocators, roll
// back half-made allocations, and repair the shadow-size invariant
// of striped files. Ends with a full sync so the repairs are
// durable.
func (a *Array) Recover(t sched.Task) (layout.RecoveryStats, error) {
	var st layout.RecoveryStats
	if a.single != nil {
		return a.single.Recover(t)
	}
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
	if !a.cfg.Simulated {
		if err := a.readLabel(t); err != nil {
			return st, err
		}
		if err := a.resyncLockstep(t, &st); err != nil {
			return st, err
		}
		if a.striped {
			if err := a.repairShadows(t, &st); err != nil {
				return st, err
			}
		}
		if a.red != nil {
			if err := a.repairRedundant(t, &st); err != nil {
				return st, err
			}
		}
	}
	// Make the repairs durable (and write the labels if the crash
	// predated the first sync).
	return st, a.Sync(t)
}

// GrowSize publishes a size growth. In affinity mode the global
// inode is the home member's own, so the growth must happen under
// that member's lock; in striped mode the array owns it and af.mu —
// the lock the home-size mirror reads under — covers it.
func (a *Array) GrowSize(t sched.Task, ino *layout.Inode, size int64) {
	if a.single != nil {
		a.single.GrowSize(t, ino, size)
		return
	}
	af := a.lookup(t, ino.ID)
	if af == nil {
		if size > ino.Size {
			ino.Size = size
		}
		return
	}
	if !a.arrayOwned() {
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
// own), striped mode under af.mu, the lock the home-size mirror reads
// under.
func (a *Array) WithInode(t sched.Task, ino *layout.Inode, fn func()) {
	if a.single != nil {
		a.single.WithInode(t, ino, fn)
		return
	}
	af := a.lookup(t, ino.ID)
	if af == nil {
		fn()
		return
	}
	if !a.arrayOwned() {
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
	if a.single != nil {
		if b, ok := a.single.(layout.Barrier); ok {
			return b.WriteBarrier(t)
		}
		return nil
	}
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
	if a.single != nil {
		return a.single.DurableSeq(t)
	}
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
		en, ok := a.sub(i).(layout.InodeEnumerator)
		if !ok {
			return nil // layout without enumeration: nothing to repair
		}
		present[i] = make(map[core.FileID]bool)
		for _, id := range en.LiveInodes(t) {
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
		if (a.arrayOwned() && missingAny) || (!a.arrayOwned() && missingHome) {
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
	var maxCur uint64
	nCur, alive := 0, 0
	for i := range a.subs {
		if i == dead {
			continue
		}
		alive++
		if ac, ok := a.sub(i).(layout.AllocCursor); ok {
			if c := ac.InodeCursor(t); c > maxCur {
				maxCur = c
			}
			nCur++
		}
	}
	if nCur == alive && nCur > 0 {
		moved := false
		for i := range a.subs {
			if i == dead {
				continue
			}
			ac := a.sub(i).(layout.AllocCursor)
			if ac.InodeCursor(t) != maxCur {
				moved = true
			}
			ac.SetInodeCursor(t, maxCur)
		}
		if moved {
			st.Repairs = append(st.Repairs,
				fmt.Sprintf("re-synced lockstep inode cursors to %d", maxCur))
		}
	}
	return nil
}

// repairShadows restores the striped-mode invariant: the home shadow
// carries the global size, and every member's shadow covers exactly
// its share of it. A member that lost rolled-forward tail data clamps
// the global size down to the largest fully-backed extent; shadows
// reaching beyond the global size are trimmed, freeing orphaned
// stripes.
func (a *Array) repairShadows(t sched.Task, st *layout.RecoveryStats) error {
	en, ok := a.subs[0].(layout.InodeEnumerator)
	if !ok {
		return nil
	}
	for _, id := range en.LiveInodes(t) {
		if id == core.RootFile || id == labelFileID {
			continue
		}
		home := a.home(id)
		shadows := make([]*layout.Inode, len(a.subs))
		missing := false
		for i, sub := range a.subs {
			ino, err := sub.GetInode(t, id)
			if err != nil {
				missing = true // rolled back above, or directory-only
				break
			}
			shadows[i] = ino
		}
		if missing {
			continue
		}
		hsize := shadows[home].Size
		total := layout.BlocksForSize(hsize)
		covered := total
		for covered > 0 {
			ok := true
			for s := range a.subs {
				if a.stripe.localBlocks(home, s, covered)*core.BlockSize > shadows[s].Size {
					ok = false
					break
				}
			}
			if ok {
				break
			}
			covered--
		}
		newSize := hsize
		if covered < total {
			newSize = covered * core.BlockSize
			st.Repairs = append(st.Repairs, fmt.Sprintf(
				"inode %d: global size %d not fully backed, clamped to %d (a member lost its stripe tail)",
				id, hsize, newSize))
		}
		keep := layout.BlocksForSize(newSize)
		for s, sub := range a.subs {
			if s == home {
				continue
			}
			need := a.stripe.localBlocks(home, s, keep) * core.BlockSize
			if shadows[s].Size != need {
				if shadows[s].Size > need {
					st.Repairs = append(st.Repairs, fmt.Sprintf(
						"inode %d: trimmed member %d shadow from %d to %d bytes (orphaned stripes)",
						id, s, shadows[s].Size, need))
				}
				if err := sub.Truncate(t, shadows[s], need); err != nil {
					return fmt.Errorf("volume %s: repair shadow of inode %d on sub %d: %w", a.name, id, s, err)
				}
				if err := sub.UpdateInode(t, shadows[s]); err != nil {
					return err
				}
			}
		}
		if newSize != hsize {
			if err := a.subs[home].Truncate(t, shadows[home], newSize); err != nil {
				return fmt.Errorf("volume %s: clamp inode %d global size: %w", a.name, id, err)
			}
			if err := a.subs[home].UpdateInode(t, shadows[home]); err != nil {
				return err
			}
		}
	}
	return nil
}
