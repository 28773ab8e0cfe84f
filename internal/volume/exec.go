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

// memberIOError tags an I/O failure with the member it came from and
// the layout that served the member when the I/O was issued, so the
// write path can tell a member death apart from a software error
// without parsing message strings, and an error from a replaced
// member apart from one of its replacement.
type memberIOError struct {
	member int
	sub    layout.Layout
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
	var scratch afile
	af := a.file(t, ino, &scratch)
	if af == nil {
		return 0, core.ErrStale
	}
	d := a.pl.dataCell(af.home, blk)
	if a.readAlive(af, d.member) {
		sub := a.sub(d.member)
		got, err := sub.ReadRunVec(t, af.shadow(d.member), d.local, a.pl.clamp(blk, n), bufs)
		if got > 0 {
			a.reads.Add(d.member, int64(got))
		}
		if err == nil || !a.noteDeadErr(d.member, sub, err) {
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
	rest := a.pl.rest(af.home, a.pl.dataCell(af.home, blk), layout.BlocksForSize(af.global.LoadSize()), buf[:0])
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
	sub := a.sub(c.member)
	if _, err := sub.ReadRunVec(t, af.shadow(c.member), c.local, 1, vec); err != nil {
		return &memberIOError{c.member, sub, err}
	}
	return nil
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
// member's shadow block map under the shadow's leaf lock: the member's
// writes and its cleaner move addresses under it.
func (af *afile) hole(c cell) bool {
	return af.shadow(c.member).LoadAddr(c.local) < 0
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
	b := batches.Get().(*batch)
	defer b.release()
	af := a.file(t, ino, &b.file)
	if af == nil {
		return core.ErrStale
	}
	af.mu.Lock(t)
	defer af.mu.Unlock(t)
	err := a.writeOnce(t, b, af, writes)
	if err == nil {
		return nil
	}
	var me *memberIOError
	if errors.As(err, &me) && a.noteDeadErr(me.member, me.sub, me.err) {
		b.reset()
		return a.writeOnce(t, b, af, writes)
	}
	return err
}

// writeOnce plans and issues one attempt at the batch, on an empty
// plan in b.
func (a *Array) writeOnce(t sched.Task, b *batch, af *afile, writes []layout.BlockWrite) error {
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
	file    afile // an affinity file's derived state, for the call (see Array.file)
	writes  []layout.BlockWrite
	dead    int                   // member the file treats as missing (degradedFor)
	real    bool                  // frames carry bytes (a simulated stack moves none)
	at      map[core.BlockNo]int  // global block → its latest write
	seen    map[core.BlockNo]bool // columns already planned, by first block
	out     []planned
	flat    []layout.BlockWrite   // per's backing array
	per     [][]layout.BlockWrite // the plan: each member's batch
	guarded []pplKey
	acc     [][]byte // parity accumulators, acc[:nacc] lent to this plan
	nacc    int

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

// reset empties b's plan, dropping its references to the caller's
// frames; the derived file state stays.
func (b *batch) reset() {
	clear(b.out)
	clear(b.flat)
	clear(b.per)
	clear(b.at)
	clear(b.seen)
	b.out, b.flat, b.per, b.guarded = b.out[:0], b.flat[:0], b.per[:0], b.guarded[:0]
	b.t, b.af, b.writes, b.dead, b.real, b.nacc = nil, nil, nil, 0, false, 0
}

// keepAcc is how many parity accumulators a pooled batch keeps: one
// flush job's columns, typically; a wider job's extras are dropped.
const keepAcc = 4

// release returns b to batches, dropping its references to the
// caller's file and frames.
func (b *batch) release() {
	b.reset()
	b.a, b.file = nil, afile{}
	if len(b.acc) > keepAcc {
		clear(b.acc[keepAcc:])
		b.acc = b.acc[:keepAcc]
	}
	batches.Put(b)
}

// accumulator lends the plan a zeroed parity block. Members keep no
// reference to a write's bytes once WriteBlocks returns (the
// layout.Layout contract), so the batch's blocks serve every call.
func (b *batch) accumulator() []byte {
	if b.nacc == len(b.acc) {
		b.acc = append(b.acc, make([]byte, core.BlockSize))
	}
	p := b.acc[b.nacc]
	b.nacc++
	clear(p)
	return p
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
	var total int64
	if a.pl.redundant() {
		// Check cells need the batch by block: which cells of a column
		// are written, and with what. Parity columns take in unwritten
		// cells up to the file's size.
		total = max(globalExtent(b.writes), layout.BlocksForSize(b.af.global.LoadSize()))
		for i, w := range b.writes {
			b.at[w.Blk] = i
			b.real = b.real || w.Data != nil
		}
	}
	var buf [8]cell
	for _, w := range b.writes {
		chk, checked := a.pl.checkCell(home, w.Blk)
		if !checked {
			// A column without a check cell is its one data cell.
			if d := a.pl.dataCell(home, w.Blk); a.writeAlive(d.member) {
				b.emit(d, w.Data, w.Size)
			}
			continue
		}
		if b.seen[chk.blk] {
			continue
		}
		b.seen[chk.blk] = true
		data := a.pl.column(home, w.Blk, total, buf[:0])
		for _, c := range data {
			if i, ok := b.at[c.blk]; ok && a.writeAlive(c.member) {
				b.emit(c, b.writes[i].Data, b.writes[i].Size)
			}
		}
		switch {
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
		parity = b.accumulator()
		p := scratchVecs.Get().(*[][]byte)
		defer scratchVecs.Put(p)
		vec, old = *p, (*p)[0]
	}
	if guard {
		pp = make([]byte, core.BlockSize)
	}
	if rmw {
		if err := b.a.readCell(b.t, b.af, chk, vec); err != nil {
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
			if err := b.a.readCell(b.t, b.af, c, vec); err != nil {
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
			if err := b.a.readCell(b.t, b.af, c, vec); err != nil {
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

// fan runs fn for every member on reports. One member runs on the
// calling task; several run as one task per member on either kernel,
// for the members are independent disk stacks. It returns the first
// error in member order.
func (a *Array) fan(t sched.Task, on func(s int) bool, fn func(st sched.Task, s int) error) error {
	n := 0
	for s := range a.subs {
		if on(s) {
			n++
		}
	}
	if n <= 1 {
		for s := range a.subs {
			if on(s) {
				if err := fn(t, s); err != nil {
					return err
				}
			}
		}
		return nil
	}
	f := a.fans.Get().(*fanout)
	f.fn = fn
	n = 0 // on may change under us (a concurrent death): count what runs
	for s := range a.subs {
		if on(s) {
			n++
			a.k.Go(a.fanTasks[s], f.legs[s])
		}
	}
	for ; n > 0; n-- {
		f.done.Wait(t)
	}
	var err error
	for _, e := range f.errs {
		if e != nil {
			err = e
			break
		}
	}
	clear(f.errs)
	f.fn = nil
	a.fans.Put(f)
	return err
}

// fanout is one concurrent fan's shared state. Each array pools its
// own (Array.fans), so the completion event is its kernel's and the
// error slots and legs fit its width. The real kernel runs each leg on
// a parked task goroutine, so a warm fan allocates nothing there.
type fanout struct {
	fn   func(st sched.Task, s int) error
	errs []error
	done sched.Event
	legs []func(st sched.Task) // legs[s] runs fn for member s
}

func (a *Array) newFanout() any {
	f := &fanout{errs: make([]error, len(a.subs)), done: a.k.NewEvent(a.fanEvent)}
	for s := range a.subs {
		f.legs = append(f.legs, func(st sched.Task) {
			f.errs[s] = f.fn(st, s)
			f.done.Signal()
		})
	}
	return f
}

// writeMember writes one member's batch. A non-carrier shadow first
// grows to cover it: the on-disk inode decodes BlocksForSize(Size) map
// entries, and nothing else records a shadow's extent (a carrier holds
// the global size, which covers any share). The growth goes through
// the member's Truncate — a growing truncate frees nothing — so the
// field is written under the same lock Sync reads it with.
func (a *Array) writeMember(t sched.Task, af *afile, s int, ws []layout.BlockWrite) error {
	sub, sh := a.sub(s), af.shadow(s)
	if end := globalExtent(ws) * core.BlockSize; !a.pl.isCarrier(af.home, s) && end > sh.Size {
		if err := sub.Truncate(t, sh, end); err != nil {
			return &memberIOError{s, sub, fmt.Errorf("volume %s: grow sub %d shadow: %w", a.name, s, err)}
		}
	}
	a.writes.Add(s, int64(len(ws)))
	if err := sub.WriteBlocks(t, sh, ws); err != nil {
		return &memberIOError{s, sub, fmt.Errorf("volume %s: write sub %d: %w", a.name, s, err)}
	}
	return nil
}

// mirrorSizes records the global size on the file's live carriers
// (via their members' Truncate, so the write happens under each
// member's lock) — a real-mode remount recovers the size from
// whichever carrier survives. Caller holds af.mu. Both sizes are read
// under their inodes' leaf locks: the front-end grows the global one
// without af.mu. An affinity carrier is the global inode itself:
// nothing to mirror.
func (a *Array) mirrorSizes(t sched.Task, af *afile) error {
	for i := 0; i < a.pl.carriers(); i++ {
		s := a.pl.carrier(af.home, i)
		if !a.writeAlive(s) || af.shadow(s) == af.global {
			continue
		}
		sub, h := a.sub(s), af.shadow(s)
		size := af.global.LoadSize()
		if h.LoadSize() == size {
			continue
		}
		if err := sub.Truncate(t, h, size); err != nil {
			return &memberIOError{s, sub, fmt.Errorf("volume %s: mirror size on carrier %d: %w", a.name, s, err)}
		}
	}
	return nil
}
