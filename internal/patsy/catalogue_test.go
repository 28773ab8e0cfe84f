package patsy

import (
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/device"
	"repro/internal/lfs"
	"repro/internal/trace"
)

// TestComponentCatalogue verifies every cut-and-paste component an
// assembly names on its command line resolves through its package's
// typed constructor, and that an unknown name is refused.
func TestComponentCatalogue(t *testing.T) {
	named := map[string]func(name string) (got string, ok bool){
		"flush policy": func(n string) (string, bool) {
			fc, ok := cache.FlushPolicy(n, 64)
			return fc.Name, ok
		},
		"replacement policy": func(n string) (string, bool) {
			p, ok := cache.NewReplacePolicy(n, rand.New(rand.NewSource(1)))
			if !ok {
				return "", false
			}
			return n, p != nil
		},
		"queue scheduler": func(n string) (string, bool) {
			q, ok := device.NewScheduler(n)
			if !ok {
				return "", false
			}
			return q.Name(), true
		},
		"cleaner": func(n string) (string, bool) {
			c, ok := lfs.NewCleanerPolicy(n)
			if !ok {
				return "", false
			}
			return c.Name(), true
		},
		"trace format": func(n string) (string, bool) {
			f, ok := trace.NewFormat(n)
			if !ok {
				return "", false
			}
			return f.Name(), true
		},
		"workload profile": func(n string) (string, bool) {
			_, ok := trace.Profiles()[n]
			return n, ok
		},
	}
	want := map[string][]string{
		"flush policy":       {"nvram-partial", "nvram-whole", "ups", "writedelay"},
		"replacement policy": {"lfu", "lru", "lru2", "random", "slru"},
		"queue scheduler":    {"fcfs", "look", "sstf", "clook"},
		"cleaner":            {"cost-benefit", "greedy"},
		"trace format":       {"coda", "sprite"},
		"workload profile":   trace.ProfileNames(),
	}
	for kind, names := range want {
		build := named[kind]
		for _, n := range names {
			if got, ok := build(n); !ok || got != n {
				t.Errorf("%s %q: built %q (ok %v)", kind, n, got, ok)
			}
		}
		if _, ok := build("no-such-component"); ok {
			t.Errorf("%s: unknown name accepted", kind)
		}
	}
}
