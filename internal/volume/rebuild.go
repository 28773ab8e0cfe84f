package volume

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/layout"
	"repro/internal/sched"
)

// This file is the array's self-healing machinery: the degraded state
// a member's death puts the array in, the online rebuild that
// reconstructs a dead member onto a freshly formatted replacement
// while the array keeps serving, and the scrub that verifies (and
// repairs) copy/parity consistency. Both sweep the placement's cells
// through the executor (exec.go).
//
// Rebuild runs in three phases:
//
//  1. Attach (under a.mu): format the replacement, replay the live
//     inode space onto it with RestoreInode (the ordinary allocators —
//     the LFS cursor, the FFS group spreader — would assign different
//     numbers than the set being cloned), align sequential allocation
//     cursors, swap the in-memory shadows, and publish the replacement
//     through a.eff/attachIdx. From here on every new write lands on
//     the replacement too, so the copy phase chases a bounded frontier.
//  2. Copy: per file, under the file's own lock, sweep the dead
//     member's cells (data and copy cells in ascending local order,
//     then parity cells), reconstruct each from
//     the rest of its column (a mirror: the other copy; parity: the
//     XOR of the column) and write it to the replacement.
//     Files born after the attach are complete by construction; each
//     finished file flips af.rebuilt, re-enabling direct reads of the
//     member for that file.
//  3. Complete (atomic): clear the dead mark — the array is healthy,
//     served entirely by the effective member set — and sync so the
//     rebuilt state is durable.
//
// A crash mid-rebuild loses nothing: the survivors still hold every
// byte (the replacement was write-only as far as correctness goes),
// and the rebuild is restarted from scratch on a fresh replacement.

// copyBatch bounds the rebuild's write batches (blocks per fan-out).
const copyBatch = 64

// Maintenance gate states. Rebuild and Scrub are whole-array passes
// over the same per-file state; exactly one may run at a time. Both
// take the gate with a CAS and refuse with ErrBusy when it is held —
// the supervisor and a concurrent admin override serialize here
// instead of racing.
const (
	maintIdle = int32(iota)
	maintRebuild
	maintScrub
)

// DeadMember returns the index of the array's dead member, -1 when
// the array is healthy.
func (a *Array) DeadMember() int { return int(a.deadIdx.Load()) }

// Degraded reports whether a member is dead.
func (a *Array) Degraded() bool { return a.deadIdx.Load() >= 0 }

// KillMember declares member m dead: reads of its blocks reconstruct
// from peers, writes stop touching it. Only redundant placements can
// keep serving; other placements refuse (their data has no second
// home). The model is single-fault: a second death while one member
// is already dead is rejected.
func (a *Array) KillMember(m int) error {
	if !a.pl.redundant() {
		return fmt.Errorf("%w (placement %s)", ErrDegraded, a.cfg.Placement)
	}
	if m < 0 || m >= len(a.subs) {
		return fmt.Errorf("volume %s: kill member %d of %d", a.name, m, len(a.subs))
	}
	if a.deadIdx.CompareAndSwap(-1, int32(m)) || int(a.deadIdx.Load()) == m {
		return nil // (idempotent)
	}
	return fmt.Errorf("volume %s: member %d already dead, cannot also lose %d (single-fault model)",
		a.name, a.DeadMember(), m)
}

// sub returns the effective layout serving member i: the original
// sub-layout, or the replacement attached by an ongoing or completed
// rebuild.
func (a *Array) sub(i int) layout.Layout { return a.effSubs()[i] }

// effSubs returns the effective member layouts (rebuild replacements
// swapped in).
func (a *Array) effSubs() []layout.Layout {
	if eff := a.eff.Load(); eff != nil {
		return *eff
	}
	return a.subs
}

// writeAlive reports whether member i accepts writes: it is not dead,
// or a rebuild has attached its replacement.
func (a *Array) writeAlive(i int) bool {
	return int(a.deadIdx.Load()) != i || int(a.attachIdx.Load()) == i
}

// readAlive reports whether member i can serve reads for file af: it
// is not dead, or af's share has been rebuilt onto the attached
// replacement.
func (a *Array) readAlive(af *afile, i int) bool {
	return int(a.deadIdx.Load()) != i || (int(a.attachIdx.Load()) == i && af.rebuilt.Load())
}

// degradedFor returns the member the file must treat as missing for
// parity arithmetic (-1 when none): the dead member, unless this
// file's share is already rebuilt on an attached replacement.
func (a *Array) degradedFor(af *afile) int {
	if dead := int(a.deadIdx.Load()); !a.readAlive(af, dead) {
		return dead
	}
	return -1
}

// noteDeadErr inspects an I/O error that sub, serving member m when
// the I/O was issued, returned; a disk-death error marks the member
// dead (when the placement can take it) so the caller retries
// degraded. An error from a layout that no longer serves m is stale:
// its disk is the one a replacement took over from, so it kills
// nothing. It reports whether the caller may retry.
func (a *Array) noteDeadErr(m int, sub layout.Layout, err error) bool {
	if !errors.Is(err, device.ErrDiskDead) || !a.pl.redundant() {
		return false
	}
	return a.sub(m) != sub || a.KillMember(m) == nil || a.DeadMember() == m
}

// ErrBusy reports that a rebuild or scrub is already running; callers
// should retry after the running pass completes.
var ErrBusy = errors.New("maintenance pass already in progress")

// Maintenance names the running maintenance pass ("" when idle).
func (a *Array) Maintenance() string {
	switch a.maint.Load() {
	case maintRebuild:
		return "rebuild"
	case maintScrub:
		return "scrub"
	}
	return ""
}

// Rebuild reconstructs the dead member's contents onto replacement, a
// freshly constructed (unformatted) layout over a new disk stack, while
// the array keeps serving. On success the array is healthy again with
// replacement serving the dead member's index.
func (a *Array) Rebuild(t sched.Task, replacement layout.Layout) error {
	if !a.pl.redundant() {
		return fmt.Errorf("volume %s: rebuild needs a redundant placement (have %s)", a.name, a.cfg.Placement)
	}
	dead := int(a.deadIdx.Load())
	if dead < 0 {
		return fmt.Errorf("volume %s: no dead member to rebuild", a.name)
	}
	if !a.maint.CompareAndSwap(maintIdle, maintRebuild) {
		return fmt.Errorf("volume %s: rebuild: %w (%s)", a.name, ErrBusy, a.Maintenance())
	}
	defer a.maint.Store(maintIdle)

	if err := replacement.Format(t); err != nil {
		return fmt.Errorf("volume %s: format replacement for member %d: %w", a.name, dead, err)
	}
	if err := replacement.Mount(t); err != nil {
		return fmt.Errorf("volume %s: mount replacement for member %d: %w", a.name, dead, err)
	}

	ids, err := a.attachReplacement(t, dead, replacement)
	if err != nil {
		return err
	}

	for _, id := range ids {
		if id == labelFileID {
			a.rebuildDone.Add(1)
			continue // array metadata, rewritten below
		}
		if err := a.rebuildFile(t, id, dead); err != nil {
			if errors.Is(err, core.ErrNotFound) {
				a.rebuildDone.Add(1) // deleted while we were copying
				continue
			}
			return fmt.Errorf("volume %s: rebuild inode %d: %w", a.name, id, err)
		}
		a.rebuildDone.Add(1)
	}

	// Restore the member's geometry label (carries its own index).
	a.mu.Lock(t)
	relabel := a.labeled && a.labelDone && a.labels != nil && a.labels[dead] != nil
	a.mu.Unlock(t)
	if relabel {
		if err := a.writeMemberLabel(t, dead); err != nil {
			return err
		}
	}

	a.deadIdx.Store(-1)
	a.attachIdx.Store(-1)
	// Durable completion: the replacement checkpoints with the rest.
	// If the checkpoint does not land (a power cut mid-sync, say) the
	// on-disk state is still degraded, and claiming health would make
	// a crash recovery trust the stale member image — restore the
	// marks so the caller (and a post-crash mount decision) sees the
	// truth: attached replacement, member still dead.
	if err := a.Sync(t); err != nil {
		a.attachIdx.Store(int32(dead))
		a.deadIdx.Store(int32(dead))
		return fmt.Errorf("volume %s: rebuild completion sync: %w", a.name, err)
	}
	return nil
}

// attachReplacement is rebuild phase 1: replay the inode space, swap
// the shadows and publish the replacement. Returns the live inode set
// to copy.
func (a *Array) attachReplacement(t sched.Task, dead int, repl layout.Layout) ([]core.FileID, error) {
	src := (dead + 1) % len(a.subs)
	a.mu.Lock(t)
	defer a.mu.Unlock(t)

	ids := a.liveInodes(t)
	a.rebuildTotal.Store(int64(len(ids)))
	a.rebuildDone.Store(0)

	restored := make(map[core.FileID]*layout.Inode, len(ids))
	for _, id := range ids {
		sino, err := a.sub(src).GetInode(t, id)
		if err != nil {
			return nil, fmt.Errorf("volume %s: member %d inode %d: %w", a.name, src, id, err)
		}
		rino, err := repl.RestoreInode(t, id, sino.Type)
		if err != nil {
			return nil, fmt.Errorf("volume %s: restore inode %d on replacement: %w", a.name, id, err)
		}
		restored[id] = rino
	}
	// A sequential allocator resumes in lockstep with the survivors.
	repl.SetInodeCursor(t, a.maxCursor(t))

	// Swap the in-memory shadows. Files the replacement does not know
	// (races are excluded: allocation holds a.mu) keep placeholders.
	for id, af := range a.files {
		af.rebuilt.Store(false)
		if r := restored[id]; r != nil {
			af.shadows[dead].Store(r)
		}
	}
	if a.labels != nil && restored[labelFileID] != nil {
		a.labels[dead] = restored[labelFileID]
	}

	// Publish: from here on writes reach the replacement.
	eff := slices.Clone(a.effSubs())
	eff[dead] = repl
	a.eff.Store(&eff)
	a.attachIdx.Store(int32(dead))
	return ids, nil
}

// rebuildFile is rebuild phase 2 for one file: one sweep over the dead
// member's cells in place.sweep's order, each reconstructed as the
// XOR of the rest of its column and written to the attached
// replacement; then the file is marked rebuilt.
func (a *Array) rebuildFile(t sched.Task, id core.FileID, dead int) error {
	if _, err := a.GetInode(t, id); err != nil {
		return err
	}
	af := a.lookup(t, id)
	if af == nil {
		return core.ErrNotFound
	}
	af.mu.Lock(t)
	defer af.mu.Unlock(t)
	if af.rebuilt.Load() {
		return nil // born after the attach, or already copied
	}

	home, total := af.home, layout.BlocksForSize(af.global.LoadSize())
	var buf, scratch [][]byte
	if !a.cfg.Simulated {
		buf, scratch = blockVec(), blockVec()
	}
	var batch []layout.BlockWrite
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		err := a.writeMember(t, af, dead, batch)
		batch = batch[:0]
		if d := a.rebuildDelay.Load(); err == nil && d > 0 {
			// The I/O budget: yield the members to foreground traffic
			// between copy batches (holding no locks but the file's).
			t.Sleep(time.Duration(d))
		}
		return err
	}
	var rest []cell
	for _, c := range a.pl.sweep(home, dead, total) {
		// Holes read as zeros: only written cells are read, and a
		// column never written stays a hole.
		rest = a.pl.rest(home, c, total, rest[:0])
		rest = slices.DeleteFunc(rest, func(o cell) bool { return af.hole(o) })
		if len(rest) == 0 {
			continue
		}
		if err := a.xorCells(t, af, rest, buf, scratch); err != nil {
			return err
		}
		w := layout.BlockWrite{Blk: c.local, Size: core.BlockSize}
		if buf != nil {
			w.Data = append([]byte(nil), buf[0]...)
		}
		if batch = append(batch, w); len(batch) >= copyBatch {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}

	// Settle the shadow's extent and metadata: a carrier records the
	// global size and the file metadata (so the pair survives the next
	// loss), a non-carrier covers exactly its share.
	sh := af.shadow(dead)
	need := a.pl.localBlocks(home, dead, total) * core.BlockSize
	if a.pl.isCarrier(home, dead) {
		need = af.global.LoadSize()
		var meta layout.Inode
		meta.Snapshot(af.shadow(a.liveCarrier(home)))
		setMeta(sh, &meta)
	}
	if sh.Size < need {
		if err := a.sub(dead).Truncate(t, sh, need); err != nil {
			return err
		}
	}
	if err := a.sub(dead).UpdateInode(t, sh); err != nil {
		return err
	}
	af.rebuilt.Store(true)
	return nil
}

// ScrubStats summarizes one consistency scan over a redundant array.
type ScrubStats struct {
	Files      int64 // files scanned
	Blocks     int64 // global data blocks covered
	Skipped    int64 // blocks skipped (member dead, not verifiable)
	Mismatches int64 // copy divergences / parity XOR violations found
	Repaired   int64 // of those, repaired (repair mode)
}

// Scrub verifies the redundant invariant online, file by file under
// each file's own lock: per column, the XOR of the data cells must
// equal the check cell (a mirror's copy equals its one data cell). In
// repair mode a violated check cell is rewritten from the data — the
// data cells are the authority (for mirrors: the primary wins), which
// is how the torn tail of a crashed degraded write is healed. Columns
// whose verification needs a dead member are counted as skipped.
// Simulated arrays move no data, so the scan issues the reads
// (costing the modeled time) but cannot compare contents.
func (a *Array) Scrub(t sched.Task, repair bool) (ScrubStats, error) {
	var st ScrubStats
	if !a.pl.redundant() {
		return st, fmt.Errorf("volume %s: scrub needs a redundant placement (have %s)", a.name, a.cfg.Placement)
	}
	if !a.maint.CompareAndSwap(maintIdle, maintScrub) {
		return st, fmt.Errorf("volume %s: scrub: %w (%s)", a.name, ErrBusy, a.Maintenance())
	}
	defer a.maint.Store(maintIdle)
	for _, id := range a.liveInodes(t) {
		if id == labelFileID {
			continue // per-member content differs by design (member index)
		}
		if err := a.scrubFile(t, id, repair, &st); err != nil {
			if errors.Is(err, core.ErrNotFound) {
				continue // deleted under the scan
			}
			return st, fmt.Errorf("volume %s: scrub inode %d: %w", a.name, id, err)
		}
		st.Files++
	}
	return st, nil
}

// scrubFile scans one file's columns, in order of their first block,
// under af.mu.
func (a *Array) scrubFile(t sched.Task, id core.FileID, repair bool, st *ScrubStats) error {
	if _, err := a.GetInode(t, id); err != nil {
		return err
	}
	af := a.lookup(t, id)
	if af == nil {
		return core.ErrNotFound
	}
	af.mu.Lock(t)
	defer af.mu.Unlock(t)

	home, total := af.home, layout.BlocksForSize(af.global.LoadSize())
	real := !a.cfg.Simulated
	var acc, chkBuf, scratch [][]byte
	if real {
		acc, chkBuf, scratch = blockVec(), blockVec(), blockVec()
	}
	var col []cell
	for b := core.BlockNo(0); int64(b) < total; b++ {
		chk, _ := a.pl.checkCell(home, b)
		if chk.blk != b {
			continue // not the column's first block
		}
		col = append(a.pl.rest(home, chk, total, col[:0]), chk)
		data := col[:len(col)-1]
		if slices.ContainsFunc(col, func(c cell) bool { return !a.readAlive(af, c.member) }) {
			st.Skipped += int64(len(data))
			continue
		}
		st.Blocks += int64(len(data))
		if !slices.ContainsFunc(col, func(c cell) bool { return !af.hole(c) }) {
			continue // untouched column
		}
		if err := a.xorCells(t, af, data, acc, scratch); err != nil {
			return err
		}
		if err := a.xorCells(t, af, col[len(data):], chkBuf, nil); err != nil {
			return err
		}
		if !real || bytes.Equal(acc[0], chkBuf[0]) {
			continue
		}
		st.Mismatches++
		if !repair {
			continue
		}
		if err := a.writeMember(t, af, chk.member, []layout.BlockWrite{
			{Blk: chk.local, Data: append([]byte(nil), acc[0]...), Size: core.BlockSize},
		}); err != nil {
			return err
		}
		st.Repaired++
	}
	return nil
}
