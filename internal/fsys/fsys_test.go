package fsys

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/layout"
	"repro/internal/lfs"
	"repro/internal/sched"
	"repro/internal/volume"
)

// arrayOf is the volume a test mounts: a one-member array over lay,
// simulated when lay's partition is.
func arrayOf(t testing.TB, k sched.Kernel, lay layout.Layout, part *layout.Partition) *volume.Array {
	t.Helper()
	arr, err := volume.New(k, lay.Name(), []layout.Layout{lay}, volume.Config{Simulated: part.Simulated})
	if err != nil {
		t.Fatal(err)
	}
	return arr
}

// rig is a full PFS-style stack: virtual kernel, real cache, LFS on
// a RAM device.
type rig struct {
	k   *sched.VKernel
	drv device.Driver
	fs  *FS
	v   *Volume
}

// run drives body on a fresh task; the kernel was stopped after
// mounting, so tests construct their own rig per body via runBody.
func runBody(t *testing.T, seed int64, fc cache.FlushConfig, body func(tk sched.Task, r *rig)) *rig {
	t.Helper()
	k := sched.NewVirtual(seed)
	drv := device.NewMemDriver(k, "mem0", 4096, nil)
	part := layout.NewPartition(drv, 0, 0, 4096, false)
	lay := arrayOf(t, k, lfs.New(k, "vol1", part, lfs.Config{SegBlocks: 16, MaxInodes: 1 << 12}), part)
	store := NewStore()
	c := cache.New(k, cache.Config{Blocks: 64, Flush: fc}, store)
	fs := New(k, c, core.RealMover{})
	store.Bind(fs)
	c.Start()
	r := &rig{k: k, drv: drv, fs: fs}
	k.Go("test", func(tk sched.Task) {
		if err := lay.Format(tk); err != nil {
			t.Errorf("Format: %v", err)
			k.Stop()
			return
		}
		if err := lay.Mount(tk); err != nil {
			t.Errorf("Mount: %v", err)
			k.Stop()
			return
		}
		v, err := fs.AddVolume(tk, 1, lay)
		if err != nil {
			t.Errorf("AddVolume: %v", err)
			k.Stop()
			return
		}
		r.v = v
		body(tk, r)
		k.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return r
}

func TestCreateWriteReadRoundTrip(t *testing.T) {
	runBody(t, 1, cache.UPS(), func(tk sched.Task, r *rig) {
		h, err := r.v.Create(tk, "/hello.txt", core.TypeRegular)
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		msg := []byte("cut-and-paste file systems")
		if err := r.v.Write(tk, h, msg, int64(len(msg))); err != nil {
			t.Fatalf("Write: %v", err)
		}
		buf := make([]byte, len(msg))
		n, err := r.v.ReadAt(tk, h, 0, buf, int64(len(msg)))
		if err != nil || n != int64(len(msg)) {
			t.Fatalf("Read: n=%d err=%v", n, err)
		}
		if !bytes.Equal(buf, msg) {
			t.Fatalf("read %q, want %q", buf, msg)
		}
		r.v.Close(tk, h)
	})
}

func TestPersistThroughCacheFlushAndReload(t *testing.T) {
	// Write through the cache, force flush + sync, drop the in-core
	// file table by reopening, then read back — exercising the full
	// cache → layout → device path and back.
	runBody(t, 2, cache.UPS(), func(tk sched.Task, r *rig) {
		h, _ := r.v.Create(tk, "/data.bin", core.TypeRegular)
		want := bytes.Repeat([]byte{0xC3}, 3*core.BlockSize)
		r.v.Write(tk, h, want, int64(len(want)))
		r.v.Close(tk, h)
		if err := r.fs.SyncAll(tk); err != nil {
			t.Fatalf("SyncAll: %v", err)
		}
		// Evict all cached blocks so the read must hit the device.
		r.fs.cache.DiscardFile(tk, 1, h.ID(), 0)
		h2, err := r.v.Open(tk, "/data.bin")
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		got := make([]byte, len(want))
		n, err := r.v.Read(tk, h2, got, int64(len(want)))
		if err != nil || int(n) != len(want) {
			t.Fatalf("read back: n=%d err=%v", n, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("data corrupted through flush cycle")
		}
		r.v.Close(tk, h2)
	})
}

// readdir lists the directory at path by name.
func readdir(tk sched.Task, v *Volume, path string) ([]string, error) {
	st, err := v.Stat(tk, path)
	if err != nil {
		return nil, err
	}
	ents, err := v.ReaddirByID(tk, st.ID)
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name
	}
	return names, err
}

func TestMkdirAndNestedPaths(t *testing.T) {
	runBody(t, 3, cache.UPS(), func(tk sched.Task, r *rig) {
		if err := r.v.Mkdir(tk, "/a"); err != nil {
			t.Fatalf("mkdir /a: %v", err)
		}
		if err := r.v.Mkdir(tk, "/a/b"); err != nil {
			t.Fatalf("mkdir /a/b: %v", err)
		}
		h, err := r.v.Create(tk, "/a/b/c.txt", core.TypeRegular)
		if err != nil {
			t.Fatalf("create nested: %v", err)
		}
		r.v.Close(tk, h)
		names, err := readdir(tk, r.v, "/a/b")
		if err != nil || len(names) != 1 || names[0] != "c.txt" {
			t.Fatalf("readdir: %v %v", names, err)
		}
		st, err := r.v.Stat(tk, "/a/b/c.txt")
		if err != nil || st.Type != core.TypeRegular {
			t.Fatalf("stat: %+v %v", st, err)
		}
		if _, err := r.v.Open(tk, "/a/missing"); err != core.ErrNotFound {
			t.Fatalf("missing open: %v", err)
		}
		if err := r.v.Mkdir(tk, "/a"); err != core.ErrExists {
			t.Fatalf("duplicate mkdir: %v", err)
		}
	})
}

func TestRemoveSavesWrites(t *testing.T) {
	// Dirty a file, delete it before any flush: the blocks must be
	// discarded, not written — the paper's write-saving effect.
	r := runBody(t, 4, cache.UPS(), func(tk sched.Task, r *rig) {
		h, _ := r.v.Create(tk, "/tmp.dat", core.TypeRegular)
		r.v.Write(tk, h, bytes.Repeat([]byte{1}, 4*core.BlockSize), 4*core.BlockSize)
		r.v.Close(tk, h)
		if err := r.v.Remove(tk, "/tmp.dat"); err != nil {
			t.Fatalf("Remove: %v", err)
		}
		if _, err := r.v.Open(tk, "/tmp.dat"); err != core.ErrNotFound {
			t.Fatalf("removed file opens: %v", err)
		}
	})
	if r.fs.cache.CacheStats().SavedWrites.Value() < 4 {
		t.Fatalf("saved writes = %d, want >= 4",
			r.fs.cache.CacheStats().SavedWrites.Value())
	}
}

func TestUnlinkWhileOpen(t *testing.T) {
	runBody(t, 5, cache.UPS(), func(tk sched.Task, r *rig) {
		h, _ := r.v.Create(tk, "/busy.txt", core.TypeRegular)
		msg := []byte("still here")
		r.v.Write(tk, h, msg, int64(len(msg)))
		if err := r.v.Remove(tk, "/busy.txt"); err != nil {
			t.Fatalf("Remove open file: %v", err)
		}
		// Unix semantics: data remains readable through the handle.
		buf := make([]byte, len(msg))
		if n, err := r.v.ReadAt(tk, h, 0, buf, int64(len(msg))); err != nil || n != int64(len(msg)) {
			t.Fatalf("read after unlink: n=%d err=%v", n, err)
		}
		if !bytes.Equal(buf, msg) {
			t.Fatal("data gone while open")
		}
		if err := r.v.Close(tk, h); err != nil {
			t.Fatalf("last close: %v", err)
		}
	})
}

func TestRename(t *testing.T) {
	runBody(t, 6, cache.UPS(), func(tk sched.Task, r *rig) {
		r.v.Mkdir(tk, "/src")
		r.v.Mkdir(tk, "/dst")
		h, _ := r.v.Create(tk, "/src/f", core.TypeRegular)
		r.v.Close(tk, h)
		if err := r.v.Rename(tk, "/src/f", "/dst/g"); err != nil {
			t.Fatalf("Rename: %v", err)
		}
		if _, err := r.v.Stat(tk, "/dst/g"); err != nil {
			t.Fatalf("stat new name: %v", err)
		}
		if _, err := r.v.Stat(tk, "/src/f"); err != core.ErrNotFound {
			t.Fatalf("old name remains: %v", err)
		}
	})
}

func TestRmdirSemantics(t *testing.T) {
	runBody(t, 7, cache.UPS(), func(tk sched.Task, r *rig) {
		r.v.Mkdir(tk, "/d")
		h, _ := r.v.Create(tk, "/d/f", core.TypeRegular)
		r.v.Close(tk, h)
		if err := r.v.Rmdir(tk, "/d"); err != core.ErrNotEmpty {
			t.Fatalf("rmdir non-empty: %v", err)
		}
		r.v.Remove(tk, "/d/f")
		if err := r.v.Rmdir(tk, "/d"); err != nil {
			t.Fatalf("rmdir empty: %v", err)
		}
		if _, err := r.v.Stat(tk, "/d"); err != core.ErrNotFound {
			t.Fatalf("removed dir stats: %v", err)
		}
	})
}

// TestRenameRefusesCycle: a directory moved into itself or under its
// own descendant would be cut off from the root (POSIX rename(2):
// EINVAL). Accepted, the root listed nothing afterwards.
func TestRenameRefusesCycle(t *testing.T) {
	runBody(t, 15, cache.UPS(), func(tk sched.Task, r *rig) {
		r.v.Mkdir(tk, "/a")
		r.v.Mkdir(tk, "/a/b")
		for _, to := range []string{"/a/b/a", "/a/a"} {
			if err := r.v.Rename(tk, "/a", to); err != core.ErrInval {
				t.Errorf("rename /a -> %s: %v, want ErrInval", to, err)
			}
		}
		if names, err := readdir(tk, r.v, "/"); err != nil || len(names) != 1 || names[0] != "a" {
			t.Fatalf("root after refused renames: %v %v, want [a]", names, err)
		}
		if err := r.v.Rename(tk, "/a/b", "/b"); err != nil {
			t.Fatalf("rename /a/b -> /b: %v", err)
		}
	})
}

// TestRenameMovesDirLinks: a directory that changes parent takes its
// ".." link along — the old parent loses one, the new one gains one.
func TestRenameMovesDirLinks(t *testing.T) {
	runBody(t, 16, cache.UPS(), func(tk sched.Task, r *rig) {
		for _, d := range []string{"/p", "/q", "/p/m"} {
			if err := r.v.Mkdir(tk, d); err != nil {
				t.Fatalf("mkdir %s: %v", d, err)
			}
		}
		if err := r.v.Rename(tk, "/p/m", "/q/m"); err != nil {
			t.Fatalf("Rename: %v", err)
		}
		for path, want := range map[string]uint32{"/p": 2, "/q": 3, "/q/m": 2, "/": 4} {
			if st, err := r.v.Stat(tk, path); err != nil || st.Nlink != want {
				t.Errorf("%s: nlink %d (%v), want %d", path, st.Nlink, err, want)
			}
		}
	})
}

// TestDirSizeTracksEntries: a directory's kept size is its encoded
// entry list's through a seeded run of creates, mkdirs, removes,
// rmdirs and renames, including moves between directories and
// refused operations.
func TestDirSizeTracksEntries(t *testing.T) {
	runBody(t, 18, cache.UPS(), func(tk sched.Task, r *rig) {
		rng := rand.New(rand.NewSource(18))
		dirs := []string{"/", "/a", "/b", "/a/c"}
		for _, d := range dirs[1:] {
			if err := r.v.Mkdir(tk, d); err != nil {
				t.Fatalf("mkdir %s: %v", d, err)
			}
		}
		path := func() string {
			return strings.TrimSuffix(dirs[rng.Intn(len(dirs))], "/") + "/" + strings.Repeat("n", 1+rng.Intn(12))
		}
		for i := 0; i < 400; i++ {
			switch rng.Intn(5) {
			case 0:
				if h, err := r.v.Create(tk, path(), core.TypeRegular); err == nil {
					r.v.Close(tk, h)
				}
			case 1:
				r.v.Mkdir(tk, path())
			case 2:
				r.v.Remove(tk, path())
			case 3:
				r.v.Rmdir(tk, path())
			default:
				r.v.Rename(tk, path(), path())
			}
			for id, f := range r.v.files {
				if f.entries == nil {
					continue
				}
				if want := int64(len(encodeDir(f.entries))); f.dirSize != want {
					t.Fatalf("op %d: directory %d keeps size %d, its encoded entries are %d bytes", i, id, f.dirSize, want)
				}
			}
		}
	})
}

// TestTruncateRefusesDirectory: a directory's size is its entry
// list's, so a path Truncate of one is core.ErrIsDir, as SetSizeByID
// is. Accepted, it cut the entry image and the entries went with it.
func TestTruncateRefusesDirectory(t *testing.T) {
	runBody(t, 17, cache.UPS(), func(tk sched.Task, r *rig) {
		r.v.Mkdir(tk, "/d")
		h, _ := r.v.Create(tk, "/d/f", core.TypeRegular)
		r.v.Close(tk, h)
		d, err := r.v.Open(tk, "/d")
		if err != nil {
			t.Fatalf("open /d: %v", err)
		}
		size := r.v.StatHandle(tk, d).Size
		if err := r.v.Truncate(tk, d, 0); err != core.ErrIsDir {
			t.Errorf("Truncate of a directory: %v, want ErrIsDir", err)
		}
		if got := r.v.StatHandle(tk, d).Size; got != size {
			t.Errorf("directory size %d after refused truncate, want %d", got, size)
		}
		r.v.Close(tk, d)
		if names, err := readdir(tk, r.v, "/d"); err != nil || len(names) != 1 {
			t.Fatalf("readdir /d: %v %v, want [f]", names, err)
		}
	})
}

func TestSymlink(t *testing.T) {
	runBody(t, 8, cache.UPS(), func(tk sched.Task, r *rig) {
		st, err := r.v.SymlinkIn(tk, r.v.Root(), "link", "/the/target")
		if err != nil {
			t.Fatalf("SymlinkIn: %v", err)
		}
		got, err := r.v.ReadlinkByID(tk, st.ID)
		if err != nil || got != "/the/target" {
			t.Fatalf("ReadlinkByID: %q %v", got, err)
		}
		if _, err := r.v.ReadlinkByID(tk, r.v.Root()); err != core.ErrInval {
			t.Fatalf("readlink on dir: %v", err)
		}
	})
}

func TestTruncateDiscardsAndShrinks(t *testing.T) {
	runBody(t, 9, cache.UPS(), func(tk sched.Task, r *rig) {
		h, _ := r.v.Create(tk, "/t", core.TypeRegular)
		r.v.Write(tk, h, bytes.Repeat([]byte{9}, 4*core.BlockSize), 4*core.BlockSize)
		if err := r.v.Truncate(tk, h, core.BlockSize); err != nil {
			t.Fatalf("Truncate: %v", err)
		}
		if got := r.v.StatHandle(tk, h).Size; got != core.BlockSize {
			t.Fatalf("size = %d", got)
		}
		// Reading past EOF returns nothing.
		buf := make([]byte, core.BlockSize)
		n, _ := r.v.ReadAt(tk, h, 2*core.BlockSize, buf, core.BlockSize)
		if n != 0 {
			t.Fatalf("read past EOF returned %d", n)
		}
		r.v.Close(tk, h)
	})
}

func TestSparseFileHoleReads(t *testing.T) {
	runBody(t, 10, cache.UPS(), func(tk sched.Task, r *rig) {
		h, _ := r.v.Create(tk, "/sparse", core.TypeRegular)
		// Write only block 2; blocks 0-1 are holes.
		r.v.WriteAt(tk, h, 2*core.BlockSize, bytes.Repeat([]byte{7}, core.BlockSize), core.BlockSize)
		buf := make([]byte, core.BlockSize)
		n, err := r.v.ReadAt(tk, h, 0, buf, core.BlockSize)
		if err != nil || n != core.BlockSize {
			t.Fatalf("hole read: n=%d err=%v", n, err)
		}
		if !bytes.Equal(buf, make([]byte, core.BlockSize)) {
			t.Fatal("hole not zero")
		}
		r.v.Close(tk, h)
	})
}

func TestReadHitRateTracked(t *testing.T) {
	r := runBody(t, 11, cache.UPS(), func(tk sched.Task, r *rig) {
		h, _ := r.v.Create(tk, "/f", core.TypeRegular)
		data := bytes.Repeat([]byte{5}, core.BlockSize)
		r.v.Write(tk, h, data, core.BlockSize)
		buf := make([]byte, core.BlockSize)
		for i := 0; i < 9; i++ {
			r.v.ReadAt(tk, h, 0, buf, core.BlockSize)
		}
		r.v.Close(tk, h)
	})
	st := r.fs.FSStats()
	if st.ReadLookups.Value() != 9 || st.ReadHits.Value() != 9 {
		t.Fatalf("read lookups=%d hits=%d (cached file should always hit)",
			st.ReadLookups.Value(), st.ReadHits.Value())
	}
	if st.ReadHitRate() != 1.0 {
		t.Fatalf("hit rate %v", st.ReadHitRate())
	}
}

func TestMultimediaDropBehind(t *testing.T) {
	r := runBody(t, 12, cache.UPS(), func(tk sched.Task, r *rig) {
		h, err := r.v.Create(tk, "/movie.mm", core.TypeMultimedia)
		if err != nil {
			t.Fatalf("create mm: %v", err)
		}
		data := bytes.Repeat([]byte{3}, 8*core.BlockSize)
		r.v.Write(tk, h, data, int64(len(data)))
		r.fs.SyncAll(tk)
		// Stream it: read sequentially, then verify the cache did
		// not keep the blocks (drop-behind policy).
		buf := make([]byte, core.BlockSize)
		for i := int64(0); i < 8; i++ {
			r.v.ReadAt(tk, h, i*core.BlockSize, buf, core.BlockSize)
		}
		kept := 0
		for i := core.BlockNo(0); i < 8; i++ {
			if r.fs.cache.Peek(tk, core.BlockKey{Vol: 1, File: h.ID(), Blk: i}) {
				kept++
			}
		}
		if kept > 1 {
			t.Fatalf("multimedia file kept %d blocks in cache", kept)
		}
		r.v.Close(tk, h)
		tk.Sleep(time.Second) // let the prefetch task notice the close
	})
	_ = r
}

func TestEnsureFilePreexisting(t *testing.T) {
	// Simulated volume: EnsureFile with preexisting=true gets sticky
	// random placement.
	k := sched.NewVirtual(13)
	part := layout.NewPartition(nullDrv{k, 8192}, 0, 0, 8192, true)
	lay := arrayOf(t, k, lfs.New(k, "simvol", part, lfs.Config{SegBlocks: 16}), part)
	store := NewStore()
	c := cache.New(k, cache.Config{Blocks: 64, Flush: cache.UPS(), Simulated: true}, store)
	fs := New(k, c, core.DefaultSimMover())
	store.Bind(fs)
	c.Start()
	k.Go("test", func(tk sched.Task) {
		lay.Format(tk)
		lay.Mount(tk)
		v, err := fs.AddVolume(tk, 1, lay)
		if err != nil {
			t.Errorf("AddVolume: %v", err)
			k.Stop()
			return
		}
		h, err := v.EnsureFile(tk, "/usr/data/old.bin", 10*core.BlockSize, true)
		if err != nil {
			t.Errorf("EnsureFile: %v", err)
			k.Stop()
			return
		}
		if got := v.StatHandle(tk, h).Size; got != 10*core.BlockSize {
			t.Errorf("preexisting size = %d", got)
		}
		// Reading it costs simulated I/O but succeeds with nil buf.
		if _, err := v.Read(tk, h, nil, 3*core.BlockSize); err != nil {
			t.Errorf("sim read: %v", err)
		}
		v.Close(tk, h)
		// Second EnsureFile opens the same file.
		h2, _ := v.EnsureFile(tk, "/usr/data/old.bin", 0, true)
		if h2.ID() != h.ID() {
			t.Error("EnsureFile recreated an existing file")
		}
		v.Close(tk, h2)
		k.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestStatsRegistered(t *testing.T) {
	r := runBody(t, 14, cache.UPS(), func(tk sched.Task, r *rig) {})
	if len(r.fs.vols) != 1 || r.fs.Vol(1) == nil {
		t.Fatal("volume table wrong")
	}
}

type nullDrv struct {
	k      sched.Kernel
	blocks int64
}

func (d nullDrv) Name() string                             { return "null" }
func (d nullDrv) Submit(t sched.Task, r *device.Request)   {}
func (d nullDrv) Wait(t sched.Task, r *device.Request)     {}
func (d nullDrv) Do(t sched.Task, r *device.Request) error { return nil }
func (d nullDrv) QueueLen() int                            { return 0 }
func (d nullDrv) CapacityBlocks() int64                    { return d.blocks }
func (d nullDrv) DriverStats() *device.DriverStats         { return nil }
func (d nullDrv) SetInjector(device.Interceptor)           {}
func (d nullDrv) Close() error                             { return nil }
