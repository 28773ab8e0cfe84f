package stats

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// Group merges a family of per-member counters — one per volume of a
// storage array, one per shard, one per worker — into a single
// array-level source: the rendered line carries the total plus the
// per-member split, so a multi-volume report reads as one statistic.
// Members are ordinary Counters; every method is safe for concurrent
// use.
//
// The member list is published copy-on-append: Member builds a longer
// copy and swaps it in, so Add and the readers load one pointer and
// take no lock.
type Group struct {
	name    string
	mu      sync.Mutex // serializes Member
	members atomic.Pointer[[]member]
}

type member struct {
	label string
	c     *Counter
}

// NewGroup returns an empty group named name.
func NewGroup(name string) *Group { return &Group{name: name} }

// list is the current member list in creation order.
func (g *Group) list() []member {
	if p := g.members.Load(); p != nil {
		return *p
	}
	return nil
}

// Member appends a member counter labelled label and returns it. The
// member's index is its position in creation order.
func (g *Group) Member(label string) *Counter {
	c := NewCounter(g.name + "." + label)
	g.mu.Lock()
	old := g.list()
	next := append(make([]member, 0, len(old)+1), old...)
	next = append(next, member{label, c})
	g.members.Store(&next)
	g.mu.Unlock()
	return c
}

// Add increments member i by n.
func (g *Group) Add(i int, n int64) { g.list()[i].c.Add(n) }

// Len returns the number of members.
func (g *Group) Len() int { return len(g.list()) }

// Labels snapshots the member labels in creation order.
func (g *Group) Labels() []string {
	ms := g.list()
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.label
	}
	return out
}

// Values snapshots the member values in creation order.
func (g *Group) Values() []int64 {
	ms := g.list()
	out := make([]int64, len(ms))
	for i, m := range ms {
		out[i] = m.c.Value()
	}
	return out
}

// Name returns the group name.
func (g *Group) Name() string { return g.name }

// String renders the merged line: total plus per-member split.
func (g *Group) String() string {
	var sum int64
	var parts []string
	for _, m := range g.list() {
		v := m.c.Value()
		sum += v
		parts = append(parts, fmt.Sprintf("%s=%d", m.label, v))
	}
	return fmt.Sprintf("%s: total=%d (%s)", g.name, sum, strings.Join(parts, " "))
}
