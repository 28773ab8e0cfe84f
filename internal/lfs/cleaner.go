package lfs

import (
	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/sched"
)

// CleanerPolicy picks the next victim segment, the paper's pluggable
// log-cleaner decision. Implementations see the usage table through
// SegState values and return the victim index, or -1 when nothing
// profitable remains.
type CleanerPolicy interface {
	Name() string
	Pick(segs []SegState, nowSeq uint32) int
}

// SegState is the cleaner's view of one segment.
type SegState struct {
	Index     int
	Live      int
	DataSlots int
	Seq       uint32 // log sequence when written (age proxy)
	Cleanable bool
}

// NewCleanerPolicy builds the named policy: "greedy" or
// "cost-benefit".
func NewCleanerPolicy(name string) (CleanerPolicy, bool) {
	switch name {
	case "greedy":
		return Greedy{}, true
	case "", "cost-benefit":
		return CostBenefit{}, true
	}
	return nil, false
}

// Greedy picks the segment with the most dead blocks.
type Greedy struct{}

// Name returns "greedy".
func (Greedy) Name() string { return "greedy" }

// Pick returns the fullest-of-dead segment, or -1 if none has any
// dead block.
func (Greedy) Pick(segs []SegState, _ uint32) int {
	best, bestDead := -1, 0
	for _, s := range segs {
		if !s.Cleanable {
			continue
		}
		dead := s.DataSlots - s.Live
		if dead > bestDead {
			best, bestDead = s.Index, dead
		}
	}
	return best
}

// CostBenefit implements Rosenblum's cost-benefit policy: clean the
// segment maximizing (1-u)·age/(1+u), preferring cold, mostly-dead
// segments.
type CostBenefit struct{}

// Name returns "cost-benefit".
func (CostBenefit) Name() string { return "cost-benefit" }

// Pick returns the best cost-benefit victim with any dead space.
func (CostBenefit) Pick(segs []SegState, nowSeq uint32) int {
	best := -1
	var bestScore float64
	for _, s := range segs {
		if !s.Cleanable || s.Live >= s.DataSlots {
			continue
		}
		u := float64(s.Live) / float64(s.DataSlots)
		age := float64(nowSeq-s.Seq) + 1
		score := (1 - u) * age / (1 + u)
		if score > bestScore {
			best, bestScore = s.Index, score
		}
	}
	return best
}

// cleanLocked runs cleaning passes until the free pool reaches the
// target. Caller holds l.mu.
func (l *LFS) cleanLocked(t sched.Task) error {
	if l.cleaning {
		return nil // re-entered from our own segment writes
	}
	l.cleaning = true
	defer func() { l.cleaning = false }()
	cleaned := 0
	for len(l.freeSegs) < cleanTargetSegs {
		victim := l.cleaner.Pick(l.segViews(), uint32(l.seq))
		if victim < 0 {
			break
		}
		if err := l.cleanSegment(t, victim); err != nil {
			return err
		}
		cleaned++
	}
	// Commit the new locations so the freed segments are safe to
	// reuse across a checkpoint boundary.
	if cleaned > 0 {
		if err := l.writeCurSegment(t, true); err != nil {
			return err
		}
		return l.checkpointLocked(t)
	}
	return nil
}

// segViews snapshots the usage table for the policy, into one slice
// reused across picks (only touched under l.mu).
func (l *LFS) segViews() []SegState {
	if len(l.views) != l.nsegs {
		l.views = make([]SegState, l.nsegs)
	}
	out := l.views
	for i := range l.sut {
		out[i] = SegState{
			Index:     i,
			Live:      int(l.sut[i].live),
			DataSlots: l.dataSlots,
			Seq:       l.sut[i].seq,
			Cleanable: l.sut[i].state == segInUse,
		}
	}
	return out
}

// bridgeGap is the longest stretch of dead slots inside a run of live
// ones that the cleaner reads through (into its one discard block)
// rather than split the run into two requests.
const bridgeGap = 8

// cleanSegment copies a victim's live blocks to the log head and
// frees it. On a real partition the victim's own summary block says
// what the slots hold (empty positions of a two-ended segment have
// Kind 0 and match no case below; slots a roll-forward stopped short
// of are dead by the file maps), and only its live data slots are read
// (see copyLive). A simulated victim is described by the in-memory
// mirror and costs one sequential read of its used portion and a
// staging copy per live block.
func (l *LFS) cleanSegment(t sched.Task, victim int) error {
	// The decoded summary is scratch: no nested pass may clean another
	// victim (from a segment opened below) until this one is done.
	nested := l.cleaning
	l.cleaning = true
	defer func() { l.cleaning = nested }()
	entries := l.summaries[victim]
	l.cleanerUtil.Observe(float64(l.sut[victim].live) / float64(l.dataSlots))

	if !l.part.Simulated {
		buf := l.takeBlock()
		err := l.part.Read(t, l.segStart(victim), 1, buf)
		if err == nil {
			err = l.decodeSummary(victim, buf, &l.victim)
		}
		l.putBlock(buf)
		if err != nil {
			return err
		}
		entries = l.victim.entries
		if err := l.copyLive(t, victim, entries); err != nil {
			return err
		}
	} else if len(entries) > 0 {
		// One sequential read of the whole used portion.
		if err := l.part.Read(t, l.segStart(victim), 1+len(entries), nil); err != nil {
			return err
		}
	}

	base := l.segStart(victim) + 1
	for i, e := range entries {
		addr := base + int64(i)
		switch e.Kind {
		case kindData:
			if !l.part.Simulated {
				continue // copyLive has moved it
			}
			if ino := l.liveData(t, e, addr); ino != nil {
				if err := l.moveData(t, ino, e, nil); err != nil {
					return err
				}
			}

		case kindIndirect:
			ino, err := l.getInodeLocked(t, e.File)
			if err != nil {
				continue
			}
			for _, a := range ino.IndAddrs {
				if a == addr {
					// Rewrite the whole map now so no reference
					// into the victim survives.
					if err := l.rewriteIndirects(t, ino); err != nil {
						return err
					}
					l.dirtyInodes[e.File] = true
					break
				}
			}

		case kindInode:
			for _, id := range l.inodeBlockIDs[addr] {
				if ent := l.imap[id]; ent != nil && ent.addr == addr {
					if _, err := l.getInodeLocked(t, id); err == nil {
						l.dirtyInodes[id] = true
					}
				}
			}
			l.dropInodeBlock(addr)

		case kindImap:
			chunk := int(e.Blk)
			if chunk >= 0 && chunk < len(l.imapAddr) && l.imapAddr[chunk] == addr {
				l.imapDirty[chunk] = true
				l.imapAddr[chunk] = -1
			}
		}
	}

	delete(l.summaries, victim)
	l.sut[victim] = segInfo{state: segFree}
	l.freeSegs = append(l.freeSegs, victim)
	l.segsCleaned.Inc()
	return nil
}

// liveData returns the inode of data entry e at addr if e is still
// the file's block there, else nil.
func (l *LFS) liveData(t sched.Task, e sumEntry, addr int64) *layout.Inode {
	ino, err := l.getInodeLocked(t, e.File)
	if err != nil || ino.BlockAddr(core.BlockNo(e.Blk)) != addr {
		return nil
	}
	return ino
}

// moveData appends live data block e of ino at the log head (data is
// an arena block the slot takes over; nil when simulated) and points
// the file at the copy.
func (l *LFS) moveData(t sched.Task, ino *layout.Inode, e sumEntry, data []byte) error {
	newAddr, err := l.appendBlock(t, kindData, e.File, e.Blk, data, data != nil)
	if err != nil {
		return err
	}
	ino.SetBlockAddr(core.BlockNo(e.Blk), newAddr)
	l.dirtyInodes[e.File] = true
	l.liveCopied.Inc()
	return nil
}

// copyLive moves a real victim's live data blocks to the log head,
// reading nothing else: each run of live slots is one vectored read
// straight into arena blocks, and a dead gap of at most bridgeGap
// slots inside a run is read into one shared discard block, so a
// mostly-live victim is still one request. A run's blocks are
// appended as owned slots and written through before the next run is
// read, so they are back in the arena for it: a victim whose live
// blocks fit the free list allocates nothing.
func (l *LFS) copyLive(t sched.Task, victim int, entries []sumEntry) error {
	base := l.segStart(victim) + 1
	live := l.live[:0]
	for i, e := range entries {
		if e.Kind == kindData && l.liveData(t, e, base+int64(i)) != nil {
			live = append(live, i)
		}
	}
	l.live = live
	var discard []byte
	for len(live) > 0 {
		n := 1
		for n < len(live) && live[n]-live[n-1]-1 <= bridgeGap {
			n++
		}
		first, last := live[0], live[n-1]
		vec := l.runVec[:0]
		for slot, j := first, 0; slot <= last; slot++ {
			if slot == live[j] {
				vec = append(vec, l.takeBlock())
				j++
				continue
			}
			if discard == nil {
				discard = l.takeBlock()
			}
			vec = append(vec, discard)
		}
		err := l.part.ReadRun(t, base+int64(first), len(vec), vec)
		for _, slot := range live[:n] {
			if err != nil {
				break
			}
			buf := vec[slot-first]
			if ino := l.liveData(t, entries[slot], base+int64(slot)); ino != nil {
				err = l.moveData(t, ino, entries[slot], buf)
			} else {
				l.putBlock(buf)
			}
		}
		clear(vec)
		l.runVec = vec[:0]
		if err == nil {
			err = l.writeThrough(t)
		}
		if err != nil {
			return err
		}
		live = live[n:]
	}
	if discard != nil {
		l.putBlock(discard)
	}
	return nil
}

// rewriteIndirects reissues a file's indirect blocks at the log
// head, making room first.
func (l *LFS) rewriteIndirects(t sched.Task, ino *layout.Inode) error {
	need := l.indirectBlocksNeeded(ino)
	if need+1 > l.dataSlots {
		return core.ErrNoSpace
	}
	if l.cur == nil || l.cur.filled()+need > l.dataSlots {
		if err := l.writeCurSegment(t, false); err != nil {
			return err
		}
		if err := l.openSegment(t); err != nil {
			return err
		}
	}
	return l.writeIndirects(t, ino)
}

// getInodeLocked is GetInode's body, under the mutex the caller
// holds. A simulated volume has every live inode in memory, so an
// imap entry without one is not found.
func (l *LFS) getInodeLocked(t sched.Task, id core.FileID) (*layout.Inode, error) {
	if ino := l.inodes[id]; ino != nil {
		return ino, nil
	}
	ent := l.imap[id]
	if ent == nil || ent.addr < 0 || l.part.Simulated {
		return nil, core.ErrNotFound
	}
	ino, err := l.readInodeFromLog(t, id, ent)
	if err != nil {
		return nil, err
	}
	l.inodes[id] = ino
	return ino, nil
}
