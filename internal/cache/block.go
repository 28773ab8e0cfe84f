// Package cache implements the framework's file-system block cache:
// LRU lists of dirty and non-dirty blocks, allocation with
// flush-on-pressure, pluggable replacement policies (LRU, random,
// LFU, SLRU, LRU-K) and pluggable flush policies — the Unix
// 30-second-update write-delay policy, the UPS write-saving policy,
// and the NVRAM policies with whole-file or partial-file flushing
// that the paper's experiments compare.
//
// Flushing is asynchronous, performed by a dedicated flusher task:
// one of the paper's "lessons learned" was that making the thread
// that needs a block also perform the flush severely delays it.
//
// # Frames
//
// A frame is in one state, and only shard.set changes it. set checks
// the change against the transitions table, keeps the shard's
// per-state counts, puts the frame where its state says and returns
// the conds to wake:
//
//	from      to        wakes    when
//	free      filling   -        a miss or a readahead claims the frame
//	clean     filling   -        the replacement victim is reclaimed
//	filling   clean     filled   Filled
//	filling   free      filled   FillFailed
//	clean     dirty     -        MarkDirty
//	dirty     flushing  -        a flush job takes the block
//	flushing  clean     cleaned  the flush succeeded
//	flushing  dirty     cleaned  the flush failed (retried later)
//	clean     free      -        a discard or a drop-behind release
//	dirty     free      -        a discard (a saved write)
//
// Beside its state a frame has holds (pins; every loan holds one too)
// and an access count (+n loans of Data to in-flight I/O, -n in-place
// writers). The placement rule: a free frame is on the free list, a
// clean unheld one in the replacement set (or back on the free list
// if it is NoCache), a dirty or flushing one on the dirty list, and
// any other frame nowhere. A state change that lands a frame on the
// free list or in the replacement set also wakes cleaned; the last
// hold's release wakes released, the last access's end wakes cleaned.
// Wake-ups are broadcast once the critical section that raised them
// has finished its changes.
//
// Every hold is released without waiting for a frame. That invariant
// is what makes waiting safe: an allocation that finds no frame waits
// for whatever brings one back — a flush (cleaned), a fill (filled)
// or, when only held frames are left, a release (released). A caller
// that already holds frames must not wait for holds, so
// GetBlockHolding returns nil where GetBlock would wait on released.
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/core"
	"repro/internal/sched"
)

// Block is one cache frame. Data is nil when the cache is
// instantiated for a simulator — the simulated mover charges copy
// time instead; this is the only difference between the simulated
// and the real cache.
type Block struct {
	Key  core.BlockKey
	Data []byte
	Size int // valid bytes, <= core.BlockSize (short tail blocks)
	// NoCache blocks (multimedia drop-behind) go to the free list
	// as soon as they are released.
	NoCache bool

	// DirtySince is when the block last went clean→dirty; the
	// flush policies age on it.
	DirtySince sched.Time
	// LastUsed and Freq feed the replacement policies.
	LastUsed sched.Time
	Freq     int64

	state frameState
	// where is the container the frame sits in.
	where loc
	// touched records a hit while the block was pinned, delivered
	// to the replacement policy when the block is released.
	touched bool
	holds   int // pins; every loan holds one too
	access  int // +n loans of Data to in-flight I/O, -n in-place writers
	// hist holds the last lruK reference times, newest last; nref
	// counts them up to lruK.
	hist [lruK]sched.Time
	nref int

	// Intrusive list links: prev, next and owner for a blockList,
	// fprev and fnext for the frame's file chain (shard.files).
	prev, next   *Block
	owner        *blockList
	fprev, fnext *Block
	// policyItem lets replacement policies attach their own state.
	policyItem any
}

// reference records a use of the block at now.
func (b *Block) reference(now sched.Time) {
	b.Freq++
	b.LastUsed = now
	copy(b.hist[:], b.hist[1:])
	b.hist[lruK-1] = now
	if b.nref < lruK {
		b.nref++
	}
}

// flushable reports whether a flush job may take the block: dirty,
// and not mid-way through an in-place write.
func (b *Block) flushable() bool { return b.state == stDirty && b.access >= 0 }

// busy names the cond that wakes when b can next be dropped — the end
// of its flush, of its fill, or of its last hold — or 0 if it can go
// now.
func (b *Block) busy() wake {
	switch {
	case b.state == stFlushing:
		return wCleaned
	case b.state == stFilling:
		return wFilled
	case b.holds > 0:
		return wReleased
	}
	return 0
}

// frameState is where a frame is in its life cycle.
type frameState uint8

const (
	stFree     frameState = iota // on the free list, no block
	stFilling                    // claimed; contents are being read or zeroed
	stClean                      // holds a block that matches storage
	stDirty                      // holds a block newer than storage
	stFlushing                   // dirty, and being written by the flusher
	nStates
)

var stateNames = [nStates]string{"free", "filling", "clean", "dirty", "flushing"}

func (s frameState) String() string { return stateNames[s] }

// dirtyStates is 1 for the states a dirty block is in.
var dirtyStates = [nStates]int{stDirty: 1, stFlushing: 1}

// wake is a set of a shard's conds, one bit per entry of shard.conds.
type wake uint8

const (
	wFilled   wake = 1 << iota // a fill ended
	wCleaned                   // a flush or a write ended, or a frame came back
	wReleased                  // a hold was released
	nConds    = iota
)

// legal marks a transitions entry as a change that may happen.
const legal wake = 1 << 7

// transitions is the frame state machine (see the package comment):
// transitions[from][to] is legal plus the conds the change wakes, or
// zero for a change that must not happen.
var transitions = [nStates][nStates]wake{
	stFree:     {stFilling: legal},
	stFilling:  {stClean: legal | wFilled, stFree: legal | wFilled},
	stClean:    {stFilling: legal, stDirty: legal, stFree: legal},
	stDirty:    {stFlushing: legal, stFree: legal},
	stFlushing: {stClean: legal | wCleaned, stDirty: legal | wCleaned},
}

// loc is the container a frame sits in.
type loc uint8

const (
	nowhere loc = iota
	onFree
	inReplace
	onDirty
)

// homes is the placement rule: the container for each state, where a
// clean frame is in the replacement set only while unheld.
var homes = [nStates]loc{stFree: onFree, stClean: inReplace, stDirty: onDirty, stFlushing: onDirty}

// home is the container for the frame's state.
func (b *Block) home() loc {
	if b.state == stClean && b.holds > 0 {
		return nowhere
	}
	return homes[b.state]
}

// set moves b to state to; it is the only code that changes a
// frame's state. It panics on a change the transitions table does
// not allow and returns the conds to wake.
func (sh *shard) set(b *Block, to frameState) wake {
	e := transitions[b.state][to]
	if e&legal == 0 {
		panic(fmt.Sprintf("cache: illegal frame transition %v → %v for %v", b.state, to, b.Key))
	}
	sh.n[b.state]--
	sh.n[to]++
	if d := dirtyStates[to] - dirtyStates[b.state]; d != 0 {
		sh.dirtyGauge.Add(int64(d))
		sh.c.addDirty(d)
	}
	b.state = to
	w := e&^legal | sh.place(b)
	if to == stFree {
		sh.indexDel(b)
	}
	return w
}

// place moves b into its home container. Landing where allocation can
// take the frame wakes cleaned.
func (sh *shard) place(b *Block) wake {
	if b.state == stClean && b.holds == 0 && b.NoCache {
		return sh.set(b, stFree) // drop-behind
	}
	to := b.home()
	if to == b.where {
		return 0
	}
	switch b.where {
	case onFree:
		sh.free.remove(b)
	case inReplace:
		sh.replace.Remove(b)
	case onDirty:
		sh.dirty.remove(b)
	}
	b.where = to
	switch to {
	case onFree:
		sh.free.pushTail(b)
		return wCleaned
	case inReplace:
		sh.replace.Add(b)
		return wCleaned
	case onDirty:
		sh.dirty.pushTail(b)
	}
	return 0
}

// release drops one hold of b. The last one re-places the frame,
// hands the replacement policy any hit it saw meanwhile and wakes
// released — only released: allocators parked on cleaned wait for a
// flush that is still coming.
func (sh *shard) release(b *Block) wake {
	if b.holds <= 0 {
		panic("cache: Release of unpinned block " + b.Key.String())
	}
	b.holds--
	if b.holds > 0 {
		return 0
	}
	sh.place(b)
	if b.where == inReplace && b.touched {
		// This is what promotes SLRU blocks to protected.
		sh.replace.Touched(b)
		b.touched = false
	}
	return wReleased
}

// broadcast wakes the conds in w.
func (sh *shard) broadcast(w wake) {
	for i, c := range sh.conds {
		if w&(1<<i) != 0 {
			c.Broadcast()
		}
	}
}

// await parks t on one cond of w: any will do, since each names a
// change that is coming, and the lowest keeps the choice deterministic.
func (sh *shard) await(t sched.Task, w wake) {
	sh.conds[bits.TrailingZeros8(uint8(w))].Wait(t, sh.mu)
}

// FileKey identifies a file in a shard's per-file index.
type FileKey struct {
	Vol  core.VolumeID
	File core.FileID
}

func fileOf(k core.BlockKey) FileKey { return FileKey{k.Vol, k.File} }

// indexAdd indexes b under its key and chains it to its file's frames.
func (sh *shard) indexAdd(b *Block) {
	sh.index[b.Key] = b
	fk := fileOf(b.Key)
	if head := sh.files[fk]; head != nil {
		head.fprev = b
		b.fnext = head
	}
	sh.files[fk] = b
}

// indexDel undoes indexAdd for a frame off the dirty list.
func (sh *shard) indexDel(b *Block) {
	delete(sh.index, b.Key)
	if b.fnext != nil {
		b.fnext.fprev = b.fprev
	}
	switch fk := fileOf(b.Key); {
	case b.fprev != nil:
		b.fprev.fnext = b.fnext
	case b.fnext == nil:
		delete(sh.files, fk) // its last frame
	default:
		sh.files[fk] = b.fnext
	}
	b.fprev, b.fnext = nil, nil
}

// blockList is an intrusive doubly-linked list of blocks.
type blockList struct {
	head, tail *Block
	n          int
}

func (l *blockList) pushTail(b *Block) {
	if b.owner != nil {
		panic("cache: block already on a list")
	}
	b.owner = l
	b.prev = l.tail
	b.next = nil
	if l.tail != nil {
		l.tail.next = b
	} else {
		l.head = b
	}
	l.tail = b
	l.n++
}

func (l *blockList) remove(b *Block) {
	if b.owner != l {
		panic("cache: removing block from wrong list")
	}
	if b.prev != nil {
		b.prev.next = b.next
	} else {
		l.head = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	} else {
		l.tail = b.prev
	}
	b.prev, b.next, b.owner = nil, nil, nil
	l.n--
}

func (l *blockList) popHead() *Block {
	b := l.head
	if b != nil {
		l.remove(b)
	}
	return b
}

func (l *blockList) len() int { return l.n }
