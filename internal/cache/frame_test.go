package cache

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
)

// TestFrameTransitions walks every pair of states: each legal edge of
// the transitions table moves the frame, its counts and its container
// and wakes the table's conds; every other edge panics.
func TestFrameTransitions(t *testing.T) {
	for from := frameState(0); from < nStates; from++ {
		for to := frameState(0); to < nStates; to++ {
			_, c, _ := newTestCache(1, 4, UPS())
			sh := c.shards[0]
			b := &Block{Key: key(9, 0), state: from}
			sh.index[b.Key] = b
			sh.n[from]++
			sh.place(b)
			before := sh.n
			ok, wants := transitions[from][to]&legal != 0, transitions[from][to]&^legal
			w, panicked := func() (w wake, panicked bool) {
				defer func() { panicked = recover() != nil }()
				return sh.set(b, to), false
			}()
			switch {
			case !ok && !panicked:
				t.Errorf("%v → %v: illegal, but no panic", from, to)
			case ok && panicked:
				t.Errorf("%v → %v: legal, but panicked", from, to)
			case ok:
				if b.state != to || sh.n[from] != before[from]-1 || sh.n[to] != before[to]+1 {
					t.Errorf("%v → %v: state %v, counts %v → %v", from, to, b.state, before, sh.n)
				}
				if b.where != b.home() {
					t.Errorf("%v → %v: frame in container %d, its home is %d", from, to, b.where, b.home())
				}
				if w&wants != wants {
					t.Errorf("%v → %v: woke %b, the table says %b", from, to, w, wants)
				}
			}
		}
	}
}

// A discard of a frame on loan waits for the loan and the pin to be
// returned, then drops the frame.
func TestDiscardWaitsForLoan(t *testing.T) {
	k, c, _ := newTestCache(20, 8, UPS())
	run(t, k, func(tk sched.Task) {
		b, _ := c.GetBlock(tk, key(1, 0))
		c.Filled(tk, b, core.BlockSize)
		c.MarkDirty(tk, b)
		c.Borrow(tk, b)
		saved := -1
		k.Go("discard", func(dt sched.Task) { saved = c.DiscardFile(dt, 1, 1, 0) })
		tk.Sleep(time.Millisecond)
		if saved != -1 {
			t.Fatal("DiscardFile dropped a frame on loan")
		}
		c.Unborrow(tk, b)
		tk.Sleep(time.Millisecond)
		if saved != -1 {
			t.Fatal("DiscardFile dropped a pinned frame")
		}
		c.Release(tk, b)
		tk.Sleep(time.Millisecond)
		if saved != 1 {
			t.Fatalf("DiscardFile = %d after the release, want 1 (still parked?)", saved)
		}
	})
}

// A discard of a frame mid-fill waits for the fill, then for the
// filler's pin.
func TestDiscardWaitsForFill(t *testing.T) {
	k, c, _ := newTestCache(22, 8, UPS())
	run(t, k, func(tk sched.Task) {
		b, _ := c.GetBlock(tk, key(1, 0))
		saved := -1
		k.Go("discard", func(dt sched.Task) { saved = c.DiscardFile(dt, 1, 1, 0) })
		tk.Sleep(time.Millisecond)
		c.Filled(tk, b, core.BlockSize)
		c.MarkDirty(tk, b)
		tk.Sleep(time.Millisecond)
		if saved != -1 {
			t.Fatal("DiscardFile dropped a pinned frame")
		}
		c.Release(tk, b)
		tk.Sleep(time.Millisecond)
		if saved != 1 {
			t.Fatalf("DiscardFile = %d after the release, want 1 (still parked?)", saved)
		}
	})
}

// With every frame of the shard on loan a demand miss parks until a
// loan comes back, and a caller that holds frames is refused at once.
func TestAllocWaitsForLoans(t *testing.T) {
	k, c, _ := newTestCache(21, 8, UPS())
	run(t, k, func(tk sched.Task) {
		var loaned []*Block
		for i := 0; i < 8; i++ {
			b, _ := c.GetBlock(tk, key(1, core.BlockNo(i)))
			c.Filled(tk, b, core.BlockSize)
			c.Borrow(tk, b)
			loaned = append(loaned, b)
		}
		if b, _ := c.GetBlockHolding(tk, key(3, 0)); b != nil {
			t.Fatal("GetBlockHolding took a frame from a shard with every frame on loan")
		}
		var got *Block
		k.Go("miss", func(mt sched.Task) {
			b, hit := c.GetBlock(mt, key(2, 0))
			if hit {
				t.Error("miss reported a hit")
			}
			c.Filled(mt, b, core.BlockSize)
			c.Release(mt, b)
			got = b
		})
		tk.Sleep(time.Millisecond)
		if got != nil {
			t.Fatal("GetBlock found a frame in a shard with every frame on loan")
		}
		c.Unborrow(tk, loaned[3])
		c.Release(tk, loaned[3])
		tk.Sleep(time.Millisecond)
		if got != loaned[3] {
			t.Fatal("GetBlock still parked after a loan came back")
		}
		for i, b := range loaned {
			if i != 3 {
				c.Unborrow(tk, b)
				c.Release(tk, b)
			}
		}
	})
}
