package stats

import (
	"sync"
	"testing"
)

func TestGroupTotalsAndRender(t *testing.T) {
	g := NewGroup("vol.blocks")
	d0 := g.Member("d0")
	g.Member("d1")
	g.Member("d2")
	d0.Add(5)
	g.Add(1, 7)
	g.Add(2, 1)
	vals := g.Values()
	if len(vals) != 3 || vals[0] != 5 || vals[1] != 7 || vals[2] != 1 {
		t.Fatalf("values %v", vals)
	}
	want := "vol.blocks: total=13 (d0=5 d1=7 d2=1)"
	if got := g.String(); got != want {
		t.Fatalf("render %q, want %q", got, want)
	}
	if g.Name() != "vol.blocks" {
		t.Fatalf("name %q", g.Name())
	}
}

// TestGroupConcurrent certifies Add/Values under -race.
func TestGroupConcurrent(t *testing.T) {
	g := NewGroup("c")
	for i := 0; i < 4; i++ {
		g.Member("m")
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				g.Add(w%4, 1)
				_ = g.Values()
			}
		}()
	}
	wg.Wait()
	if got := g.String(); got != "c: total=8000 (m=2000 m=2000 m=2000 m=2000)" {
		t.Fatalf("render %q, want total 8000 in 2000s", got)
	}
}

// Members added at run time (a promoted spare) publish while Add,
// Values and String read the list without a lock; under -race
// this certifies the copy-on-append publication.
func TestGroupMemberWhileAdding(t *testing.T) {
	g := NewGroup("c")
	g.Member("d0")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				g.Add(0, 1)
				if n := g.Len(); n > 1 {
					g.Add(n-1, 1)
				}
				_ = g.Values()
				_ = g.String()
			}
		}()
	}
	for i := 1; i <= 8; i++ {
		g.Member("s" + string(rune('0'+i)))
	}
	wg.Wait()
	if got := g.Values()[0]; got != 4000 {
		t.Fatalf("member 0 = %d, want 4000", got)
	}
	if g.Len() != 9 || len(g.Labels()) != 9 {
		t.Fatalf("%d members, %d labels; want 9", g.Len(), len(g.Labels()))
	}
}
