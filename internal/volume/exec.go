package volume

import (
	"crypto/subtle"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/sched"
)

// The executor: every data path drives the placement's cells
// (place.go) through the same few steps, whatever the placement.
//
//   - Read: the block's data cell, when its member is readable;
//     otherwise reconstruct it from the rest of its column.
//   - Write: plan the batch into per-member batches, column by column
//     (data cells, then the check cell, whose role picks the strategy),
//     fan them out, then mirror the global size onto the carriers.
//   - Rebuild, scrub and post-crash repair (rebuild.go, recover.go)
//     sweep the same cells and columns.

// ErrDegraded is what a non-redundant placement reports when an I/O
// needs a dead member: there is no second copy to serve from.
var ErrDegraded = errors.New("volume: member dead and placement holds no redundancy")

// memberIOError tags an I/O failure with the member it came from, so
// the write path can tell a member death apart from a software error
// without parsing message strings.
type memberIOError struct {
	member int
	err    error
}

func (e *memberIOError) Error() string { return e.err.Error() }
func (e *memberIOError) Unwrap() error { return e.err }

// ReadRunVec routes a clustered read to the member holding the run's
// first block. The run is clamped at the chunk boundary — within a
// chunk the global and local blocks advance in lockstep, so the
// member's own run discovery sees the contiguity — and the caller
// continues on the next member with its next call. A dead member
// degrades to block-wise reconstruction.
func (a *Array) ReadRunVec(t sched.Task, ino *layout.Inode, blk core.BlockNo, n int, bufs [][]byte) (int, error) {
	if len(bufs) == 0 && !a.cfg.Simulated {
		return 0, core.ErrInval
	}
	af := a.lookup(t, ino.ID)
	if af == nil {
		return 0, core.ErrStale
	}
	d := a.pl.dataCell(af.home, blk)
	if a.readAlive(af, d.member) {
		got, err := a.sub(d.member).ReadRunVec(t, af.shadows[d.member], d.local, a.pl.clamp(blk, n), bufs)
		if got > 0 {
			a.reads.Add(d.member, int64(got))
		}
		if err == nil || !a.noteDeadErr(d.member, err) {
			return got, err
		}
	}
	if err := a.reconstruct(t, af, blk, bufs); err != nil {
		return 0, err
	}
	return 1, nil
}

// reconstruct serves blk, whose data cell is unreadable, from the rest
// of its column: the check cell read straight into the first segment
// of bufs (nil for a simulated stack), the column's other data cells
// XORed in through one scratch buffer. For a mirror that is the one
// read of the copy.
func (a *Array) reconstruct(t sched.Task, af *afile, blk core.BlockNo, bufs [][]byte) error {
	if !a.pl.redundant() {
		return ErrDegraded
	}
	var buf [8]cell
	rest := a.pl.rest(af.home, a.pl.dataCell(af.home, blk), layout.BlocksForSize(af.global.Size), buf[:0])
	for _, c := range rest {
		if !a.readAlive(af, c.member) {
			return fmt.Errorf("volume %s: block %d of inode %d: member %d of its column is unavailable too",
				a.name, blk, af.id, c.member)
		}
	}
	var scratch [][]byte
	if len(bufs) > 0 && len(rest) > 1 {
		p := scratchVecs.Get().(*[][]byte)
		defer scratchVecs.Put(p)
		scratch = *p
	}
	if err := a.xorCells(t, af, rest, bufs, scratch); err != nil {
		return err
	}
	a.degraded.Inc()
	return nil
}

// xorCells reads the XOR of cells into the first segment of dst: the
// first cell straight into it, the others through scratch (both
// one-segment vectors). A simulated stack (nil dst) issues the reads
// and moves no data.
func (a *Array) xorCells(t sched.Task, af *afile, cells []cell, dst, scratch [][]byte) error {
	vec := dst
	for i, c := range cells {
		if err := a.readCell(t, af, c, vec); err != nil {
			return err
		}
		if i > 0 && dst != nil {
			xorInto(dst[0], scratch[0])
		}
		vec = scratch
	}
	return nil
}

// readCell reads cell c into the first segment of vec (nil for a
// simulated stack), one block.
func (a *Array) readCell(t sched.Task, af *afile, c cell, vec [][]byte) error {
	a.reads.Add(c.member, 1)
	_, err := a.sub(c.member).ReadRunVec(t, af.shadows[c.member], c.local, 1, vec)
	return err
}

// blockVec is a one-segment read vector over a fresh block buffer.
func blockVec() [][]byte { return [][]byte{make([]byte, core.BlockSize)} }

// scratchVecs lends blockVecs to the paths that read a cell only to
// XOR it — a parity column's read-modify-write and a degraded read's
// reconstruction — so a steady stream of them allocates none.
var scratchVecs = sync.Pool{New: func() any { v := blockVec(); return &v }}

// xorInto accumulates b into acc, over their common length. Nil
// slices (simulated stacks) are no-ops: the I/O pattern is modeled,
// the math skipped.
func xorInto(acc, b []byte) {
	subtle.XORBytes(acc, acc, b)
}

// hole reports whether cell c was never written. It peeks at the
// member's shadow block map under the member's inode lock: the
// member's cleaner moves addresses under it.
func (a *Array) hole(t sched.Task, af *afile, c cell) bool {
	h := af.shadows[c.member]
	var addr int64
	a.withShadow(t, c.member, h, func() { addr = h.BlockAddr(c.local) })
	return addr < 0
}

// WriteBlocks applies one file's dirty-block batch: plan it into
// per-member batches, fan those out, record the global size on the
// carriers. Fault detection is lazy, symmetric with the read path: a
// member that died at the hardware since the last health sweep fails
// its leg of the fan with ErrDiskDead. Note the death (degrading the
// array) and re-plan the batch once — the retry routes around the dead
// member instead of the flusher re-issuing a doomed fan forever. A
// second fault, or any non-death error, propagates.
func (a *Array) WriteBlocks(t sched.Task, ino *layout.Inode, writes []layout.BlockWrite) error {
	af := a.lookup(t, ino.ID)
	if af == nil {
		return core.ErrStale
	}
	af.mu.Lock(t)
	defer af.mu.Unlock(t)
	err := a.writeOnce(t, af, writes)
	if err == nil {
		return nil
	}
	var me *memberIOError
	if errors.As(err, &me) && a.noteDeadErr(me.member, me.err) {
		return a.writeOnce(t, af, writes)
	}
	return err
}

func (a *Array) writeOnce(t sched.Task, af *afile, writes []layout.BlockWrite) error {
	b := batches.Get().(*batch)
	defer b.release()
	b.t, b.a, b.af, b.writes, b.dead = t, a, af, writes, a.degradedFor(af)
	err := b.plan()
	if err == nil {
		err = a.fan(t, b.on, b.write)
	}
	if err == nil {
		err = a.mirrorSizes(t, af)
	}
	if err != nil {
		// A failed fan may have torn the guarded columns on the media;
		// their records stay pending until a retry (or the crash
		// recovery's ReplayParity) makes the columns consistent again.
		a.disarmParity(b.guarded)
		return err
	}
	// The fan is issued, but log-structured members commit it
	// independently (a segment fill here, a barrier there) — until
	// every member has, a cut can roll back one side of a column and
	// not the other. Arm the records; the next whole-array barrier
	// retires them.
	a.armParity(b.guarded)
	return nil
}

// batch builds one WriteBlocks call's per-member batches. Batches are
// lent from batches and keep their maps, slices and fan callbacks
// from call to call, so planning and dispatch allocate nothing once
// warm.
type batch struct {
	t       sched.Task
	a       *Array
	af      *afile
	writes  []layout.BlockWrite
	dead    int                   // member the file treats as missing (degradedFor)
	real    bool                  // frames carry bytes (a simulated stack moves none)
	at      map[core.BlockNo]int  // global block → its latest write
	seen    map[core.BlockNo]bool // columns already planned, by first block
	out     []planned
	flat    []layout.BlockWrite   // per's backing array
	per     [][]layout.BlockWrite // the plan: each member's batch
	guarded []pplKey

	// The fan's callbacks over per, built once per batch.
	on    func(s int) bool
	write func(st sched.Task, s int) error
}

var batches = sync.Pool{New: func() any {
	b := &batch{at: map[core.BlockNo]int{}, seen: map[core.BlockNo]bool{}}
	b.on = func(s int) bool { return len(b.per[s]) > 0 }
	b.write = func(st sched.Task, s int) error { return b.a.writeMember(st, b.af, s, b.per[s]) }
	return b
}}

// release returns b to batches, dropping its references to the
// caller's file and frames.
func (b *batch) release() {
	clear(b.out)
	clear(b.flat)
	clear(b.per)
	clear(b.at)
	clear(b.seen)
	*b = batch{at: b.at, seen: b.seen, out: b.out[:0], flat: b.flat[:0], per: b.per[:0],
		guarded: b.guarded[:0], on: b.on, write: b.write}
	batches.Put(b)
}

// planned is one member write of the plan.
type planned struct {
	member int
	w      layout.BlockWrite
}

// plan visits the batch's columns in order of first appearance and
// emits each one's written data cells (on members that accept writes),
// then its check cell, whose role picks the strategy: a copy aliases
// the frame — no reads, no XOR, no record — and a parity cell is
// computed by parity. The cells go into one slice by value, then into
// per-member batches over one backing array.
func (b *batch) plan() error {
	a, home := b.a, b.af.home
	total := globalExtent(b.writes)
	if a.pl.owned() {
		// Parity columns take in unwritten cells up to the file's size.
		// (An affinity file's size is the home member's to publish.)
		total = max(total, layout.BlocksForSize(b.af.global.Size))
	}
	for i, w := range b.writes {
		b.at[w.Blk] = i
		b.real = b.real || w.Data != nil
	}
	var buf [8]cell
	for _, w := range b.writes {
		chk, checked := a.pl.checkCell(home, w.Blk)
		first := w.Blk
		if checked {
			first = chk.blk
		}
		if b.seen[first] {
			continue
		}
		b.seen[first] = true
		data := a.pl.column(home, w.Blk, total, buf[:0])
		for _, c := range data {
			if i, ok := b.at[c.blk]; ok && a.writeAlive(c.member) {
				b.emit(c, b.writes[i].Data, b.writes[i].Size)
			}
		}
		switch {
		case !checked:
		case chk.role == roleCopy:
			if a.writeAlive(chk.member) {
				cw := b.writes[b.at[chk.blk]]
				b.emit(chk, cw.Data, cw.Size)
			}
		case chk.member != b.dead:
			// A missing parity member takes no update: the column's
			// redundancy returns with the rebuild.
			parity, err := b.parity(data, chk)
			if err != nil {
				return err
			}
			b.emit(chk, parity, core.BlockSize)
		}
	}
	b.flat = slices.Grow(b.flat, len(b.out)) // per's slices must not move
	for m := range a.subs {
		from := len(b.flat)
		for _, p := range b.out {
			if p.member == m {
				b.flat = append(b.flat, p.w)
			}
		}
		b.per = append(b.per, b.flat[from:len(b.flat):len(b.flat)])
	}
	return nil
}

func (b *batch) emit(c cell, data []byte, size int) {
	b.out = append(b.out, planned{c.member, layout.BlockWrite{Blk: c.local, Data: data, Size: size}})
}

// read reads cell c's current content into the first segment of vec
// (nil for a simulated stack).
func (b *batch) read(c cell, vec [][]byte) error {
	if err := b.a.readCell(b.t, b.af, c, vec); err != nil {
		return &memberIOError{c.member, err}
	}
	return nil
}

// parity computes a column's new parity block (data: its cells inside
// the grown file). It picks, deterministically, the cheapest correct
// strategy:
//
//   - reconstruct-write: parity = XOR(new frames, unwritten cells'
//     current content). Taken when the column is fully written (no
//     reads at all: the full-stripe write), when a written cell is on
//     the missing member (its old content is unreadable), or when it
//     reads no more than RMW would — but never when an unwritten cell
//     is on the missing member, whose content only the old parity
//     represents.
//   - otherwise read-modify-write: parity ^= old ^ new per written
//     cell (the RAID-5 small-write penalty: two reads, two writes).
//
// A column with a data cell on the missing member is write-hole
// exposed — that chunk exists only as what the parity implies — and is
// guarded by a battery-backed partial-parity record (paritylog.go): pp
// is the XOR of the cells outside the written-alive set, built from
// the reads the strategy performs anyway. The parity block carries the
// whole block (Size = BlockSize); file-size granularity lives in the
// global inode, not the column.
func (b *batch) parity(data []cell, chk cell) ([]byte, error) {
	unwritten, onDead, deadWritten := 0, false, false
	for _, c := range data {
		_, w := b.at[c.blk]
		if !w {
			unwritten++
		}
		if c.member == b.dead {
			onDead, deadWritten = true, w
		}
	}
	rmw := unwritten > 0 && !deadWritten && (unwritten > len(data)-unwritten || onDead)
	guard := onDead && b.real
	var parity, pp, old []byte
	var vec [][]byte // the one-segment read vector over old
	if b.real {
		parity = make([]byte, core.BlockSize)
		p := scratchVecs.Get().(*[][]byte)
		defer scratchVecs.Put(p)
		vec, old = *p, (*p)[0]
	}
	if guard {
		pp = make([]byte, core.BlockSize)
	}
	if rmw {
		if err := b.read(chk, vec); err != nil {
			return nil, err
		}
		xorInto(parity, old)
		xorInto(pp, old)
	}
	var slots []ParitySlot
	for _, c := range data {
		i, w := b.at[c.blk]
		switch {
		case w && rmw:
			if err := b.read(c, vec); err != nil {
				return nil, err
			}
			xorInto(parity, old)
			xorInto(pp, old)
			xorInto(parity, b.writes[i].Data)
		case w:
			xorInto(parity, b.writes[i].Data)
			if c.member == b.dead {
				xorInto(pp, b.writes[i].Data)
			}
		case !rmw:
			if err := b.read(c, vec); err != nil {
				return nil, err
			}
			xorInto(parity, old)
			xorInto(pp, old)
		}
		if guard && w && c.member != b.dead {
			slots = append(slots, ParitySlot{Member: c.member, Local: c.local})
		}
	}
	if guard {
		s, o := b.a.pl.stripe(chk.blk)
		b.a.recordParity(&ParityRecord{
			File: b.af.id, Stripe: s, Offset: o,
			PMember: chk.member, PLocal: chk.local, Slots: slots, PP: pp,
		})
		b.guarded = append(b.guarded, pplKey{b.af.id, s, o})
	}
	return parity, nil
}

// globalExtent is one past the highest global block of a write batch.
func globalExtent(ws []layout.BlockWrite) int64 {
	var end int64
	for _, w := range ws {
		end = max(end, int64(w.Blk)+1)
	}
	return end
}

// fan runs fn for every member on reports: in member order on the
// calling task under the virtual kernel (deterministic schedules) or
// when at most one member is on, otherwise as one task per member —
// the members are independent disk stacks. It returns the first error
// in member order.
func (a *Array) fan(t sched.Task, on func(s int) bool, fn func(st sched.Task, s int) error) error {
	n := 0
	for s := range a.subs {
		if on(s) {
			n++
		}
	}
	if a.k.Virtual() || n <= 1 {
		for s := range a.subs {
			if on(s) {
				if err := fn(t, s); err != nil {
					return err
				}
			}
		}
		return nil
	}
	errs := make([]error, len(a.subs))
	done := a.k.NewEvent(a.fanEvent)
	n = 0 // on may change under us (a concurrent death): count what runs
	for s := range a.subs {
		if on(s) {
			n++
			a.k.Go(a.fanTasks[s], func(st sched.Task) {
				errs[s] = fn(st, s)
				done.Signal()
			})
		}
	}
	for ; n > 0; n-- {
		done.Wait(t)
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// writeMember writes one member's batch. A non-carrier shadow first
// grows to cover it: the on-disk inode decodes BlocksForSize(Size) map
// entries, and nothing else records a shadow's extent (a carrier holds
// the global size, which covers any share). The growth goes through
// the member's Truncate — a growing truncate frees nothing — so the
// field is written under the same lock Sync reads it with.
func (a *Array) writeMember(t sched.Task, af *afile, s int, ws []layout.BlockWrite) error {
	sh := af.shadows[s]
	if end := globalExtent(ws) * core.BlockSize; !a.pl.isCarrier(af.home, s) && end > sh.Size {
		if err := a.sub(s).Truncate(t, sh, end); err != nil {
			return &memberIOError{s, fmt.Errorf("volume %s: grow sub %d shadow: %w", a.name, s, err)}
		}
	}
	a.writes.Add(s, int64(len(ws)))
	if err := a.sub(s).WriteBlocks(t, sh, ws); err != nil {
		return &memberIOError{s, fmt.Errorf("volume %s: write sub %d: %w", a.name, s, err)}
	}
	return nil
}

// mirrorSizes records the global size on the file's live carriers
// (via their members' Truncate, so the write happens under each
// member's lock) — a real-mode remount recovers the size from
// whichever carrier survives. Caller holds af.mu, the global size's
// publication lock; each carrier's current size is snapshotted under
// its member's inode lock, which the member's packer encodes under.
// An affinity carrier is the global inode itself: nothing to mirror.
func (a *Array) mirrorSizes(t sched.Task, af *afile) error {
	for i := 0; i < a.pl.carriers(); i++ {
		s := a.pl.carrier(af.home, i)
		if !a.writeAlive(s) || af.shadows[s] == af.global {
			continue
		}
		h := af.shadows[s]
		size, cur := af.global.Size, int64(-1)
		a.withShadow(t, s, h, func() { cur = h.Size })
		if cur == size {
			continue
		}
		if err := a.sub(s).Truncate(t, h, size); err != nil {
			return &memberIOError{s, fmt.Errorf("volume %s: mirror size on carrier %d: %w", a.name, s, err)}
		}
	}
	return nil
}

// withShadow runs fn — a read or scalar update of a member's shadow
// inode — under that member's inode lock on the real kernel, where the
// member's segment packer may be encoding the shadow and its cleaner
// moving block addresses concurrently: the fsys mutateIno publication
// rule pushed down a layer. The virtual kernel is cooperative: direct
// call, simulated schedules untouched.
func (a *Array) withShadow(t sched.Task, s int, h *layout.Inode, fn func()) {
	if a.k.Virtual() {
		fn()
		return
	}
	a.sub(s).WithInode(t, h, fn)
}
