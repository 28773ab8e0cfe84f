package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sched"
)

func mkBlocks(n int) []*Block {
	bs := make([]*Block, n)
	for i := range bs {
		bs[i] = refBlock(sched.Time(i))
	}
	return bs
}

// refBlock returns a block referenced at each of times, in order.
func refBlock(times ...sched.Time) *Block {
	b := &Block{}
	for _, at := range times {
		b.reference(at)
	}
	return b
}

func TestNewReplacePolicyNames(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, name := range []string{"", "lru", "random", "rr", "lfu", "slru", "lru2", "lru-k"} {
		p, ok := NewReplacePolicy(name, rng)
		if !ok || p == nil {
			t.Fatalf("NewReplacePolicy(%q) failed", name)
		}
	}
	if _, ok := NewReplacePolicy("bogus", rng); ok {
		t.Fatal("bogus policy accepted")
	}
}

func TestLRUVictimOrder(t *testing.T) {
	p := NewLRU()
	bs := mkBlocks(3)
	for _, b := range bs {
		p.Add(b)
	}
	p.Touched(bs[0]) // 0 becomes hottest; victim order 1,2,0
	if v := p.Victim(); v != bs[1] {
		t.Fatal("first victim not LRU")
	}
	if v := p.Victim(); v != bs[2] {
		t.Fatal("second victim wrong")
	}
	if v := p.Victim(); v != bs[0] {
		t.Fatal("third victim wrong")
	}
	if p.Victim() != nil || p.Len() != 0 {
		t.Fatal("empty policy misbehaves")
	}
}

func TestRandomPolicyEvictsAll(t *testing.T) {
	p := NewRandom(rand.New(rand.NewSource(7)))
	bs := mkBlocks(10)
	for _, b := range bs {
		p.Add(b)
	}
	p.Remove(bs[4])
	seen := map[*Block]bool{}
	for p.Len() > 0 {
		seen[p.Victim()] = true
	}
	if len(seen) != 9 || seen[bs[4]] {
		t.Fatalf("random policy evicted %d unique, removed block seen=%v", len(seen), seen[bs[4]])
	}
}

func TestLFUVictimIsLeastFrequent(t *testing.T) {
	p := NewLFU()
	bs := mkBlocks(3)
	for _, b := range bs {
		p.Add(b)
	}
	bs[0].Freq = 10
	p.Touched(bs[0])
	bs[2].Freq = 5
	p.Touched(bs[2])
	if v := p.Victim(); v != bs[1] {
		t.Fatalf("LFU victim freq=%d, want the freq=1 block", v.Freq)
	}
	if v := p.Victim(); v != bs[2] {
		t.Fatal("second LFU victim wrong")
	}
}

func TestSLRUPromotion(t *testing.T) {
	p := NewSLRU(4)
	bs := mkBlocks(3)
	for _, b := range bs {
		p.Add(b)
	}
	p.Touched(bs[0]) // promote to protected
	// Victims come from probation first: 1 then 2, then protected 0.
	if v := p.Victim(); v != bs[1] {
		t.Fatal("probation victim wrong")
	}
	if v := p.Victim(); v != bs[2] {
		t.Fatal("second probation victim wrong")
	}
	if v := p.Victim(); v != bs[0] {
		t.Fatal("protected fallback wrong")
	}
}

func TestSLRUProtectedOverflowDemotes(t *testing.T) {
	p := NewSLRU(2)
	bs := mkBlocks(4)
	for _, b := range bs {
		p.Add(b)
	}
	for _, b := range bs {
		p.Touched(b) // all promoted; overflow demotes oldest
	}
	// Protected holds the 2 most recent (2,3); 0,1 demoted to
	// probation, so victims are 0,1 first.
	if v := p.Victim(); v != bs[0] {
		t.Fatal("demoted block not first victim")
	}
	if v := p.Victim(); v != bs[1] {
		t.Fatal("second demoted block not second victim")
	}
}

func TestLRUKPrefersShortHistory(t *testing.T) {
	p := NewLRUK()
	a := refBlock(100)      // one reference
	b := refBlock(50, 200)  // two references
	c := refBlock(180, 220) // two, newer K-dist
	for _, x := range []*Block{a, b, c} {
		p.Add(x)
	}
	// a has infinite backward-K distance: evicted first; then b
	// (K-dist 50) before c (K-dist 180).
	if v := p.Victim(); v != a {
		t.Fatal("short-history block not evicted first")
	}
	if v := p.Victim(); v != b {
		t.Fatal("older K-distance not evicted second")
	}
	if v := p.Victim(); v != c {
		t.Fatal("remaining victim wrong")
	}
}

func TestLRUKTouchedReorders(t *testing.T) {
	p := NewLRUK()
	a := refBlock(25, 35)
	b := refBlock(30, 40)
	p.Add(a)
	p.Add(b)
	// Initially a's K-distance (25) < b's (30): a would go first.
	// After another reference a's history is [35,500]:
	// K-distance 35 > 30, so b becomes the victim.
	a.reference(500)
	p.Touched(a)
	if v := p.Victim(); v != b {
		t.Fatal("re-referenced block evicted despite newer K-distance")
	}
}

// TestPolicyAddRemoveInvariant: for every policy, blocks added and
// removed in arbitrary patterns never duplicate or lose entries.
func TestPolicyAddRemoveInvariant(t *testing.T) {
	mk := []func() ReplacePolicy{
		func() ReplacePolicy { return NewLRU() },
		func() ReplacePolicy { return NewRandom(rand.New(rand.NewSource(3))) },
		func() ReplacePolicy { return NewLFU() },
		func() ReplacePolicy { return NewSLRU(8) },
		func() ReplacePolicy { return NewLRUK() },
	}
	for _, ctor := range mk {
		p := ctor()
		prop := func(ops []uint8) bool {
			in := map[*Block]bool{}
			pool := mkBlocks(8)
			for _, op := range ops {
				b := pool[int(op)%len(pool)]
				switch {
				case op%3 == 0 && !in[b]:
					p.Add(b)
					in[b] = true
				case op%3 == 1 && in[b]:
					p.Remove(b)
					in[b] = false
				case op%3 == 2 && in[b]:
					b.reference(sched.Time(op))
					p.Touched(b)
				}
			}
			want := 0
			for _, v := range in {
				if v {
					want++
				}
			}
			if p.Len() != want {
				return false
			}
			// Drain: every block in the set comes out exactly once.
			seen := map[*Block]bool{}
			for p.Len() > 0 {
				v := p.Victim()
				if v == nil || seen[v] || !in[v] {
					return false
				}
				seen[v] = true
				in[v] = false
			}
			return len(seen) == want
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
	}
}
