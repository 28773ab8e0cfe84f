package pfs

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/nfs"
)

// The namespace model test: a seeded random stream of namespace
// operations goes over NFS to a live server and, in lockstep, to an
// in-memory reference tree. After every operation the server must
// return the error the reference predicts, list every reachable
// directory exactly as the reference does, type and size every entry
// the same way, and keep each directory's link count at 2 plus its
// subdirectories. The same comparison runs after a clean Close+Open
// and after a power cut recovered from the NVRAM battery, where every
// acknowledged operation must come back through intent replay. A
// failure names the seed and the operation; the stream is a pure
// function of the seed, so the same seed replays it.
//
// Known gap: swept over many seeds, FFS differs from the reference
// after Crash+Open{Recover} on some of them (seed 12 is one), because
// its inode slots are freed and reused on disk ahead of the directory
// blocks the intents replay against. ROADMAP ("FFS namespace after an
// NVRAM recovery") has the detail and the likely fix.

// mnode is one file of the reference tree.
type mnode struct {
	typ    core.FileType
	kids   map[string]*mnode // directories
	size   int64             // regular files
	target string            // symlinks
	fh     nfs.FH            // refreshed by every check
}

func newDir() *mnode { return &mnode{typ: core.TypeDirectory, kids: map[string]*mnode{}} }

// names returns n's entry names, sorted.
func (n *mnode) names() []string {
	out := make([]string, 0, len(n.kids))
	for name := range n.kids {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// dirs appends n and every directory below it, in name order.
func (n *mnode) dirs(out []*mnode) []*mnode {
	out = append(out, n)
	for _, name := range n.names() {
		if k := n.kids[name]; k.typ == core.TypeDirectory {
			out = k.dirs(out)
		}
	}
	return out
}

// holds reports whether d lies in n's subtree, n included.
func (n *mnode) holds(d *mnode) bool {
	for _, k := range n.dirs(nil) {
		if k == d {
			return true
		}
	}
	return false
}

// nsModel drives one server and the reference tree.
type nsModel struct {
	rng  *rand.Rand
	root *mnode
	cl   *nfs.Client
}

var nsNames = []string{"a", "b", "c", "d"}

// pick returns one of d's entry names most of the time, and otherwise
// any name of the pool (present or not).
func (m *nsModel) pick(d *mnode) string {
	if names := d.names(); len(names) > 0 && m.rng.Intn(5) > 0 {
		return names[m.rng.Intn(len(names))]
	}
	return nsNames[m.rng.Intn(len(nsNames))]
}

// step runs one random operation on both trees and returns its
// description, or an error if the server did not answer as the
// reference did.
func (m *nsModel) step() (string, error) {
	dirs := m.root.dirs(nil)
	d := dirs[m.rng.Intn(len(dirs))]
	name := m.pick(d)
	kid := d.kids[name]
	var want, got error
	var desc string
	switch op := m.rng.Intn(8); op {
	case 0, 1, 2:
		typ := []core.FileType{core.TypeRegular, core.TypeDirectory, core.TypeSymlink}[op]
		desc = fmt.Sprintf("create %v %q in dir %v", typ, name, d.fh)
		if kid != nil {
			want = core.ErrExists
		}
		target := fmt.Sprintf("/t%d", m.rng.Intn(100))
		switch typ {
		case core.TypeRegular:
			_, _, got = m.cl.Create(d.fh, name)
		case core.TypeDirectory:
			_, _, got = m.cl.Mkdir(d.fh, name)
		default:
			_, _, got = m.cl.Symlink(d.fh, name, target)
		}
		if want == nil && got == nil {
			n := &mnode{typ: typ}
			switch typ {
			case core.TypeDirectory:
				n = newDir()
			case core.TypeSymlink:
				n.target = target
			}
			d.kids[name] = n
		}
	case 3, 4:
		rmdir := op == 4
		desc = fmt.Sprintf("remove (dir %v) %q in dir %v", rmdir, name, d.fh)
		switch {
		case kid == nil:
			want = core.ErrNotFound
		case rmdir && kid.typ != core.TypeDirectory:
			want = core.ErrNotDir
		case !rmdir && kid.typ == core.TypeDirectory:
			want = core.ErrIsDir
		case rmdir && len(kid.kids) > 0:
			want = core.ErrNotEmpty
		}
		if rmdir {
			got = m.cl.Rmdir(d.fh, name)
		} else {
			got = m.cl.Remove(d.fh, name)
		}
		if want == nil && got == nil {
			delete(d.kids, name)
		}
	case 5, 6:
		// Cross-parent moves and cycle attempts: half the time the
		// target directory is drawn from the moved directory's own
		// subtree.
		to := dirs[m.rng.Intn(len(dirs))]
		if kid != nil && kid.typ == core.TypeDirectory && m.rng.Intn(2) == 0 {
			sub := kid.dirs(nil)
			to = sub[m.rng.Intn(len(sub))]
		}
		toName := m.pick(to)
		desc = fmt.Sprintf("rename %q in dir %v to %q in dir %v", name, d.fh, toName, to.fh)
		switch {
		case kid == nil:
			want = core.ErrNotFound
		case to.kids[toName] != nil:
			want = core.ErrExists
		case d != to && kid.typ == core.TypeDirectory && kid.holds(to):
			want = core.ErrInval
		}
		got = m.cl.Rename(d.fh, name, to.fh, toName)
		if want == nil && got == nil {
			delete(d.kids, name)
			to.kids[toName] = kid
		}
	case 7:
		if kid == nil || kid.typ == core.TypeSymlink {
			return "setsize: no target", nil
		}
		size := int64(m.rng.Intn(3 * core.BlockSize))
		if kid.typ == core.TypeDirectory {
			size, want = 1, core.ErrIsDir // a directory is never 1 byte long
		}
		desc = fmt.Sprintf("setsize %q in dir %v to %d", name, d.fh, size)
		_, got = m.cl.SetSize(kid.fh, size)
		if want == nil && got == nil {
			kid.size = size
		}
	}
	if got != want {
		return desc, fmt.Errorf("got %v, want %v", got, want)
	}
	return desc + fmt.Sprintf(" -> %v", got), nil
}

// check compares the whole reachable server tree against the
// reference, refreshing every node's handle on the way.
func (m *nsModel) check(root nfs.FH) error {
	m.root.fh = root
	return m.checkDir(m.root, "/")
}

func (m *nsModel) checkDir(d *mnode, path string) error {
	ents, err := m.cl.Readdir(d.fh)
	if err != nil {
		return fmt.Errorf("readdir %s: %v", path, err)
	}
	got := make([]string, len(ents))
	for i, e := range ents {
		got[i] = e.Name
	}
	want := d.names()
	if strings.Join(got, ",") != strings.Join(want, ",") {
		return fmt.Errorf("%s lists %v, want %v", path, got, want)
	}
	attr, err := m.cl.Getattr(d.fh)
	if err != nil {
		return fmt.Errorf("getattr %s: %v", path, err)
	}
	links := uint32(2)
	for _, k := range d.kids {
		if k.typ == core.TypeDirectory {
			links++
		}
	}
	if attr.Nlink != links {
		return fmt.Errorf("%s has nlink %d, want %d (2 + subdirectories)", path, attr.Nlink, links)
	}
	for _, name := range want {
		k := d.kids[name]
		fh, attr, err := m.cl.Lookup(d.fh, name)
		if err != nil {
			return fmt.Errorf("lookup %s%s: %v", path, name, err)
		}
		k.fh = fh
		switch {
		case attr.Type != k.typ:
			return fmt.Errorf("%s%s is a %v, want a %v", path, name, attr.Type, k.typ)
		case k.typ == core.TypeRegular && attr.Size != k.size:
			return fmt.Errorf("%s%s is %d bytes, want %d", path, name, attr.Size, k.size)
		case k.typ == core.TypeSymlink:
			if target, err := m.cl.Readlink(fh); err != nil || target != k.target {
				return fmt.Errorf("readlink %s%s: %q %v, want %q", path, name, target, err, k.target)
			}
		case k.typ == core.TypeDirectory:
			if err := m.checkDir(k, path+name+"/"); err != nil {
				return err
			}
		}
	}
	return nil
}

func TestNamespaceModel(t *testing.T) {
	for _, c := range []struct {
		layout string
		seed   int64
	}{{"lfs", 1996}, {"ffs", 1996}} {
		t.Run(c.layout, func(t *testing.T) { runNamespaceModel(t, c.layout, c.seed) })
	}
}

func runNamespaceModel(t *testing.T, layout string, seed int64) {
	cfg := Config{Path: filepath.Join(t.TempDir(), "pfs.img"), Blocks: 4096, CacheBlocks: 128,
		Layout: layout, Flush: cache.NVRAMWhole(64)}
	m := &nsModel{rng: rand.New(rand.NewSource(seed)), root: newDir()}
	var srv *Server
	mount := func(what string) {
		t.Helper()
		var err error
		if srv, err = Open(cfg); err != nil {
			t.Fatalf("seed %d: %s: open: %v", seed, what, err)
		}
		addr, err := srv.ServeNFS("127.0.0.1:0")
		if err != nil {
			t.Fatalf("ServeNFS: %v", err)
		}
		if m.cl, err = nfs.Dial(addr); err != nil {
			t.Fatalf("Dial: %v", err)
		}
		root, _, err := m.cl.Mount(1)
		if err != nil {
			t.Fatalf("Mount: %v", err)
		}
		if err := m.check(root); err != nil {
			t.Fatalf("seed %d: after %s: %v", seed, what, err)
		}
	}
	run := func(ops int, phase string) {
		t.Helper()
		for i := 0; i < ops; i++ {
			desc, err := m.step()
			if err == nil {
				err = m.check(m.root.fh)
			}
			if err != nil {
				t.Fatalf("seed %d: %s op %d (%s): %v", seed, phase, i, desc, err)
			}
		}
	}
	mount("format")
	run(150, "first life")
	m.cl.Close()
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	mount("Close+Open")
	run(100, "second life")
	m.cl.Close()
	cfg.Recover = srv.Crash()
	mount("Crash+Open{Recover}")
	t.Logf("recovery: %+v", srv.Recovery.ReplayStats)
	m.cl.Close()
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
