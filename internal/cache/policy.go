package cache

import (
	"container/heap"
	"math/rand"

	"repro/internal/sched"
)

// ReplacePolicy orders the replacement candidates: blocks that are
// valid, clean and unpinned. The cache moves blocks in and out of
// the candidate set as their state changes; the policy only decides
// *which* candidate goes. Re-implementing this interface is how the
// paper's derived cache classes experiment with RR, LFU, SLRU,
// LRU-K and adaptive replacement without touching the base cache.
type ReplacePolicy interface {
	Name() string
	// Add puts b into the candidate set.
	Add(b *Block)
	// Remove takes b out of the candidate set.
	Remove(b *Block)
	// Touched records a reference to candidate b (only called
	// while b is in the set).
	Touched(b *Block)
	// Victim removes and returns the next block to evict, or nil
	// if the set is empty.
	Victim() *Block
	// Len reports the candidate count.
	Len() int
}

// NewReplacePolicy builds the named policy with the kernel's random
// source. Known names: lru, random, lfu, slru, lru2.
func NewReplacePolicy(name string, rng *rand.Rand) (ReplacePolicy, bool) {
	switch name {
	case "", "lru":
		return NewLRU(), true
	case "random", "rr":
		return NewRandom(rng), true
	case "lfu":
		return NewLFU(), true
	case "slru":
		return NewSLRU(0), true
	case "lru2", "lru-k":
		return NewLRUK(), true
	}
	return nil, false
}

// LRU is the base policy: least-recently-used, an intrusive list
// from head (coldest) to tail (hottest).
type LRU struct{ list blockList }

// NewLRU returns an LRU policy.
func NewLRU() *LRU { return &LRU{} }

// Name returns "lru".
func (p *LRU) Name() string { return "lru" }

// Add appends b at the hot end.
func (p *LRU) Add(b *Block) { p.list.pushTail(b) }

// Remove unlinks b.
func (p *LRU) Remove(b *Block) { p.list.remove(b) }

// Touched moves b to the hot end.
func (p *LRU) Touched(b *Block) {
	p.list.remove(b)
	p.list.pushTail(b)
}

// Victim evicts the coldest block.
func (p *LRU) Victim() *Block { return p.list.popHead() }

// Len reports the candidate count.
func (p *LRU) Len() int { return p.list.len() }

// Random (the paper's "RR") evicts a uniformly random candidate.
type Random struct {
	rng    *rand.Rand
	blocks []*Block
}

// NewRandom returns a random-replacement policy.
func NewRandom(rng *rand.Rand) *Random { return &Random{rng: rng} }

// Name returns "random".
func (p *Random) Name() string { return "random" }

// Add records b's slot index in policyItem for O(1) removal.
func (p *Random) Add(b *Block) {
	b.policyItem = len(p.blocks)
	p.blocks = append(p.blocks, b)
}

// Remove swap-deletes b.
func (p *Random) Remove(b *Block) {
	i := b.policyItem.(int)
	last := len(p.blocks) - 1
	p.blocks[i] = p.blocks[last]
	p.blocks[i].policyItem = i
	p.blocks = p.blocks[:last]
	b.policyItem = nil
}

// Touched is a no-op: randomness ignores recency.
func (p *Random) Touched(*Block) {}

// Victim evicts a random candidate.
func (p *Random) Victim() *Block {
	if len(p.blocks) == 0 {
		return nil
	}
	b := p.blocks[p.rng.Intn(len(p.blocks))]
	p.Remove(b)
	return b
}

// Len reports the candidate count.
func (p *Random) Len() int { return len(p.blocks) }

// LFU evicts the least-frequently-used candidate (block Freq counts
// references over the block's cache lifetime), ties broken by
// recency.
type LFU struct{ h lfuHeap }

// NewLFU returns an LFU policy.
func NewLFU() *LFU { return &LFU{} }

// Name returns "lfu".
func (p *LFU) Name() string { return "lfu" }

// Add inserts b into the frequency heap.
func (p *LFU) Add(b *Block) { heap.Push(&p.h, b) }

// Remove deletes b from the heap.
func (p *LFU) Remove(b *Block) {
	heap.Remove(&p.h, b.policyItem.(int))
	b.policyItem = nil
}

// Touched restores heap order after b's frequency grew.
func (p *LFU) Touched(b *Block) { heap.Fix(&p.h, b.policyItem.(int)) }

// Victim evicts the lowest-frequency block.
func (p *LFU) Victim() *Block {
	if p.h.Len() == 0 {
		return nil
	}
	b := heap.Pop(&p.h).(*Block)
	b.policyItem = nil
	return b
}

// Len reports the candidate count.
func (p *LFU) Len() int { return p.h.Len() }

type lfuHeap []*Block

func (h lfuHeap) Len() int { return len(h) }
func (h lfuHeap) Less(i, j int) bool {
	if h[i].Freq != h[j].Freq {
		return h[i].Freq < h[j].Freq
	}
	return h[i].LastUsed < h[j].LastUsed
}
func (h lfuHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].policyItem = i
	h[j].policyItem = j
}
func (h *lfuHeap) Push(x any) {
	b := x.(*Block)
	b.policyItem = len(*h)
	*h = append(*h, b)
}
func (h *lfuHeap) Pop() any {
	old := *h
	n := len(old)
	b := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return b
}

// SLRU is segmented LRU (Karedla, Love & Wherry): new blocks enter a
// probationary segment; a hit promotes to the protected segment,
// whose overflow demotes back to probation. Victims come from
// probation first.
type SLRU struct {
	probation, protected blockList
	maxProtected         int
}

// NewSLRU returns an SLRU policy; maxProtected 0 means "size on
// first use" (set by the cache to ~2/3 of capacity).
func NewSLRU(maxProtected int) *SLRU { return &SLRU{maxProtected: maxProtected} }

// Name returns "slru".
func (p *SLRU) Name() string { return "slru" }

// SetProtectedLimit fixes the protected-segment capacity.
func (p *SLRU) SetProtectedLimit(n int) { p.maxProtected = n }

type slruSeg uint8

const (
	segProbation slruSeg = iota
	segProtected
)

// Add enters b on probation.
func (p *SLRU) Add(b *Block) {
	b.policyItem = segProbation
	p.probation.pushTail(b)
}

// Remove unlinks b from its segment.
func (p *SLRU) Remove(b *Block) {
	if b.policyItem.(slruSeg) == segProtected {
		p.protected.remove(b)
	} else {
		p.probation.remove(b)
	}
	b.policyItem = nil
}

// Touched promotes b to protected, demoting protected overflow.
func (p *SLRU) Touched(b *Block) {
	if b.policyItem.(slruSeg) == segProtected {
		p.protected.remove(b)
		p.protected.pushTail(b)
		return
	}
	p.probation.remove(b)
	b.policyItem = segProtected
	p.protected.pushTail(b)
	limit := p.maxProtected
	if limit <= 0 {
		limit = 64
	}
	for p.protected.len() > limit {
		d := p.protected.popHead()
		d.policyItem = segProbation
		p.probation.pushTail(d)
	}
}

// Victim evicts from probation, falling back to protected.
func (p *SLRU) Victim() *Block {
	if b := p.probation.popHead(); b != nil {
		b.policyItem = nil
		return b
	}
	if b := p.protected.popHead(); b != nil {
		b.policyItem = nil
		return b
	}
	return nil
}

// Len reports the candidate count.
func (p *SLRU) Len() int { return p.probation.len() + p.protected.len() }

// lruK is LRU-K's K: the reference history every block keeps.
const lruK = 2

// LRUK evicts by the K-th most recent reference time (O'Neil's
// LRU-K, K = 2); blocks with fewer than K references order before
// those with K, by oldest reference.
type LRUK struct {
	h lrukHeap
}

// NewLRUK returns an LRU-K policy.
func NewLRUK() *LRUK { return &LRUK{} }

// Name returns "lru-k".
func (p *LRUK) Name() string { return "lru-k" }

// kDist returns the K-th most recent reference time, or a value
// that sorts before every real time when the history is short.
func (p *LRUK) kDist(b *Block) sched.Time {
	if b.nref < lruK {
		if b.nref == 0 {
			return -1
		}
		// Backward-K distance is infinite; order by oldest seen,
		// shifted below all full-history blocks.
		return b.hist[lruK-b.nref] - sched.Forever/2
	}
	return b.hist[0]
}

// Add inserts b.
func (p *LRUK) Add(b *Block) {
	heap.Push(&p.h, lrukEntry{b, p.kDist(b)})
}

// Remove deletes b.
func (p *LRUK) Remove(b *Block) {
	heap.Remove(&p.h, b.policyItem.(int))
	b.policyItem = nil
}

// Touched reorders b after a new reference.
func (p *LRUK) Touched(b *Block) {
	i := b.policyItem.(int)
	p.h[i].dist = p.kDist(b)
	heap.Fix(&p.h, i)
}

// Victim evicts the block with the oldest K-distance.
func (p *LRUK) Victim() *Block {
	if p.h.Len() == 0 {
		return nil
	}
	e := heap.Pop(&p.h).(lrukEntry)
	e.b.policyItem = nil
	return e.b
}

// Len reports the candidate count.
func (p *LRUK) Len() int { return p.h.Len() }

type lrukEntry struct {
	b    *Block
	dist sched.Time
}

type lrukHeap []lrukEntry

func (h lrukHeap) Len() int           { return len(h) }
func (h lrukHeap) Less(i, j int) bool { return h[i].dist < h[j].dist }
func (h lrukHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].b.policyItem = i
	h[j].b.policyItem = j
}
func (h *lrukHeap) Push(x any) {
	e := x.(lrukEntry)
	e.b.policyItem = len(*h)
	*h = append(*h, e)
}
func (h *lrukHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = lrukEntry{}
	*h = old[:n-1]
	return e
}
