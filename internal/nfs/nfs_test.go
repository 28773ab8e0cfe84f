package nfs_test

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/nfs"
	"repro/internal/pfs"
)

// startServer boots a PFS and its network front-end on loopback.
func startServer(t *testing.T) (*pfs.Server, *nfs.Client) {
	srv, cl, _ := startServerAddr(t)
	return srv, cl
}

func startServerAddr(t *testing.T) (*pfs.Server, *nfs.Client, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "pfs.img")
	srv, err := pfs.Open(pfs.Config{Path: path, Blocks: 2048, CacheBlocks: 128})
	if err != nil {
		t.Fatalf("pfs.Open: %v", err)
	}
	addr, err := srv.ServeNFS("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeNFS: %v", err)
	}
	cl, err := nfs.Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() {
		cl.Close()
		srv.Close()
	})
	return srv, cl, addr
}

func TestNullAndMount(t *testing.T) {
	_, cl := startServer(t)
	if err := cl.Null(); err != nil {
		t.Fatalf("Null: %v", err)
	}
	root, attr, err := cl.Mount(1)
	if err != nil {
		t.Fatalf("Mount: %v", err)
	}
	if attr.Type != core.TypeDirectory || root.File != core.RootFile {
		t.Fatalf("root attr %+v handle %+v", attr, root)
	}
	if _, _, err := cl.Mount(99); err != core.ErrNotFound {
		t.Fatalf("mount of missing volume: %v", err)
	}
}

func TestCreateWriteReadOverWire(t *testing.T) {
	_, cl := startServer(t)
	root, _, _ := cl.Mount(1)
	fh, _, err := cl.Create(root, "wire.txt")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	payload := bytes.Repeat([]byte("abcd"), 3000) // 12 KB, 3 blocks
	attr, err := cl.Write(fh, 0, payload)
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	if attr.Size != int64(len(payload)) {
		t.Fatalf("size after write %d", attr.Size)
	}
	got, err := cl.Read(fh, 0, len(payload))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("wire round trip mismatch")
	}
	// Offset read.
	part, err := cl.Read(fh, 4096, 100)
	if err != nil || !bytes.Equal(part, payload[4096:4196]) {
		t.Fatalf("offset read: %v", err)
	}
}

func TestLookupAndGetattr(t *testing.T) {
	_, cl := startServer(t)
	root, _, _ := cl.Mount(1)
	fh, _, _ := cl.Create(root, "f")
	got, attr, err := cl.Lookup(root, "f")
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if got != fh {
		t.Fatalf("lookup handle %+v, want %+v", got, fh)
	}
	attr2, err := cl.Getattr(fh)
	if err != nil || attr2.ID != attr.ID {
		t.Fatalf("Getattr: %+v %v", attr2, err)
	}
	if _, _, err := cl.Lookup(root, "missing"); err != core.ErrNotFound {
		t.Fatalf("missing lookup: %v", err)
	}
}

func TestMkdirReaddirRemove(t *testing.T) {
	_, cl := startServer(t)
	root, _, _ := cl.Mount(1)
	dir, _, err := cl.Mkdir(root, "sub")
	if err != nil {
		t.Fatalf("Mkdir: %v", err)
	}
	cl.Create(dir, "x")
	cl.Create(dir, "y")
	ents, err := cl.Readdir(dir)
	if err != nil || len(ents) != 2 || ents[0].Name != "x" || ents[1].Name != "y" {
		t.Fatalf("Readdir: %v %v", ents, err)
	}
	if err := cl.Rmdir(root, "sub"); err != core.ErrNotEmpty {
		t.Fatalf("rmdir non-empty: %v", err)
	}
	cl.Remove(dir, "x")
	cl.Remove(dir, "y")
	if err := cl.Rmdir(root, "sub"); err != nil {
		t.Fatalf("rmdir empty: %v", err)
	}
}

// TestRemoveAndRmdirCheckType: REMOVE of a directory is
// NFS3ERR_ISDIR and RMDIR of anything else NFS3ERR_NOTDIR, the path
// API's Remove/Rmdir rules. Both procedures used to share one handler
// that removed either.
func TestRemoveAndRmdirCheckType(t *testing.T) {
	_, cl := startServer(t)
	root, _, _ := cl.Mount(1)
	if _, _, err := cl.Mkdir(root, "d"); err != nil {
		t.Fatalf("Mkdir: %v", err)
	}
	if _, _, err := cl.Create(root, "f"); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := cl.Remove(root, "d"); err != core.ErrIsDir {
		t.Errorf("REMOVE of a directory: %v, want ErrIsDir", err)
	}
	if err := cl.Rmdir(root, "f"); err != core.ErrNotDir {
		t.Errorf("RMDIR of a file: %v, want ErrNotDir", err)
	}
	if ents, err := cl.Readdir(root); err != nil || len(ents) != 2 {
		t.Fatalf("root after refused removes: %v %v, want d and f", ents, err)
	}
	if err := cl.Rmdir(root, "d"); err != nil {
		t.Errorf("RMDIR: %v", err)
	}
	if err := cl.Remove(root, "f"); err != nil {
		t.Errorf("REMOVE: %v", err)
	}
}

// TestRenameDirectoryOverWire: RENAME refuses to move a directory
// under itself (NFS3ERR_INVAL), which would detach the subtree, and a
// directory that changes parent moves its ".." link along.
func TestRenameDirectoryOverWire(t *testing.T) {
	_, cl := startServer(t)
	root, _, _ := cl.Mount(1)
	a, _, _ := cl.Mkdir(root, "a")
	b, _, _ := cl.Mkdir(a, "b")
	if err := cl.Rename(root, "a", b, "a"); err != core.ErrInval {
		t.Errorf("rename a -> a/b/a: %v, want ErrInval", err)
	}
	if err := cl.Rename(root, "a", a, "a"); err != core.ErrInval {
		t.Errorf("rename a -> a/a: %v, want ErrInval", err)
	}
	if ents, err := cl.Readdir(root); err != nil || len(ents) != 1 || ents[0].Name != "a" {
		t.Fatalf("root after refused renames: %v %v, want [a]", ents, err)
	}
	q, _, _ := cl.Mkdir(root, "q")
	if err := cl.Rename(a, "b", q, "m"); err != nil {
		t.Fatalf("rename a/b -> q/m: %v", err)
	}
	for _, c := range []struct {
		name string
		fh   nfs.FH
		want uint32
	}{{"a", a, 2}, {"q", q, 3}, {"q/m", b, 2}} {
		if attr, err := cl.Getattr(c.fh); err != nil || attr.Nlink != c.want {
			t.Errorf("%s: nlink %d (%v), want %d", c.name, attr.Nlink, err, c.want)
		}
	}
}

// TestNamesChecked: CREATE, MKDIR, SYMLINK and RENAME refuse names no
// directory entry may carry — "", ".", ".." and a name with a slash
// are NFS3ERR_INVAL, one past the limit NFS3ERR_NAMETOOLONG — and
// leave the directory as it was.
func TestNamesChecked(t *testing.T) {
	_, cl := startServer(t)
	root, _, _ := cl.Mount(1)
	cl.Create(root, "f")
	long := string(bytes.Repeat([]byte{'n'}, core.MaxNameLen+1))
	for _, c := range []struct {
		name string
		want error
	}{{"", core.ErrInval}, {".", core.ErrInval}, {"..", core.ErrInval}, {"x/y", core.ErrInval}, {long, core.ErrNameTooLon}} {
		if _, _, err := cl.Create(root, c.name); err != c.want {
			t.Errorf("CREATE %.12q: %v, want %v", c.name, err, c.want)
		}
		if _, _, err := cl.Mkdir(root, c.name); err != c.want {
			t.Errorf("MKDIR %.12q: %v, want %v", c.name, err, c.want)
		}
		if _, _, err := cl.Symlink(root, c.name, "/t"); err != c.want {
			t.Errorf("SYMLINK %.12q: %v, want %v", c.name, err, c.want)
		}
		if err := cl.Rename(root, "f", root, c.name); err != c.want {
			t.Errorf("RENAME to %.12q: %v, want %v", c.name, err, c.want)
		}
	}
	if ents, err := cl.Readdir(root); err != nil || len(ents) != 1 || ents[0].Name != "f" {
		t.Fatalf("root after refused names: %v %v, want [f]", ents, err)
	}
}

func TestRenameOverWire(t *testing.T) {
	_, cl := startServer(t)
	root, _, _ := cl.Mount(1)
	cl.Create(root, "old")
	if err := cl.Rename(root, "old", root, "new"); err != nil {
		t.Fatalf("Rename: %v", err)
	}
	if _, _, err := cl.Lookup(root, "old"); err != core.ErrNotFound {
		t.Fatal("old name survived")
	}
	if _, _, err := cl.Lookup(root, "new"); err != nil {
		t.Fatalf("new name missing: %v", err)
	}
}

func TestSymlinkOverWire(t *testing.T) {
	_, cl := startServer(t)
	root, _, _ := cl.Mount(1)
	fh, attr, err := cl.Symlink(root, "ln", "/target/path")
	if err != nil || attr.Type != core.TypeSymlink {
		t.Fatalf("Symlink: %+v %v", attr, err)
	}
	target, err := cl.Readlink(fh)
	if err != nil || target != "/target/path" {
		t.Fatalf("Readlink: %q %v", target, err)
	}
}

func TestSetSizeTruncates(t *testing.T) {
	_, cl := startServer(t)
	root, _, _ := cl.Mount(1)
	fh, _, _ := cl.Create(root, "t")
	cl.Write(fh, 0, bytes.Repeat([]byte{1}, 8192))
	attr, err := cl.SetSize(fh, 100)
	if err != nil || attr.Size != 100 {
		t.Fatalf("SetSize: %+v %v", attr, err)
	}
	data, _ := cl.Read(fh, 0, 8192)
	if len(data) != 100 {
		t.Fatalf("read after truncate: %d bytes", len(data))
	}
}

// TestDirectoryRefusesWriteAndTruncate: WRITE and a size-changing
// SETATTR on a directory handle are NFS3ERR_ISDIR. Accepted, they
// overwrote or truncated the directory's on-disk image, and after a
// remount its entries were gone.
func TestDirectoryRefusesWriteAndTruncate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pfs.img")
	cfg := pfs.Config{Path: path, Blocks: 2048, CacheBlocks: 128}
	srv, err := pfs.Open(cfg)
	if err != nil {
		t.Fatalf("pfs.Open: %v", err)
	}
	addr, err := srv.ServeNFS("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeNFS: %v", err)
	}
	cl, err := nfs.Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	root, _, _ := cl.Mount(1)
	for _, name := range []string{"a", "b"} {
		if _, _, err := cl.Create(root, name); err != nil {
			t.Fatalf("Create %s: %v", name, err)
		}
	}
	if _, err := cl.Write(root, 0, bytes.Repeat([]byte{0xEE}, 64)); err != core.ErrIsDir {
		t.Errorf("WRITE on the root: %v, want ErrIsDir", err)
	}
	if _, err := cl.SetSize(root, 0); err != core.ErrIsDir {
		t.Errorf("SETATTR size 0 on the root: %v, want ErrIsDir", err)
	}
	cl.Close()
	if err := srv.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	srv.Close()

	srv, err = pfs.Open(cfg)
	if err != nil {
		t.Fatalf("remount: %v", err)
	}
	defer srv.Close()
	if addr, err = srv.ServeNFS("127.0.0.1:0"); err != nil {
		t.Fatalf("ServeNFS: %v", err)
	}
	if cl, err = nfs.Dial(addr); err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	root, _, _ = cl.Mount(1)
	ents, err := cl.Readdir(root)
	if err != nil || len(ents) != 2 || ents[0].Name != "a" || ents[1].Name != "b" {
		t.Fatalf("root after remount: %v %v, want a and b", ents, err)
	}
}

func TestStatFS(t *testing.T) {
	_, cl := startServer(t)
	root, _, _ := cl.Mount(1)
	info, err := cl.StatFS(root)
	if err != nil {
		t.Fatalf("StatFS: %v", err)
	}
	if info.BlockSize != core.BlockSize || info.Layout != "lfs" || info.FreeBlocks <= 0 {
		t.Fatalf("FSInfo %+v", info)
	}
}

func TestStaleHandle(t *testing.T) {
	_, cl := startServer(t)
	root, _, _ := cl.Mount(1)
	bad := nfs.FH{Vol: 42, File: 7}
	if _, err := cl.Getattr(bad); err != core.ErrStale {
		t.Fatalf("stale volume: %v", err)
	}
	gone := nfs.FH{Vol: root.Vol, File: 9999}
	if _, err := cl.Getattr(gone); err != core.ErrNotFound {
		t.Fatalf("missing file: %v", err)
	}
}

// TestHammerConcurrentClients drives the server hard from many
// connections at once — each client churns creates, multi-block
// writes, reads, renames and removes in its own directory while
// sharing the volume — and then verifies every surviving file's
// contents. Run under -race this is the server path's concurrency
// certificate.
func TestHammerConcurrentClients(t *testing.T) {
	if testing.Short() {
		t.Skip("hammer test in -short mode")
	}
	_, cl, addr := startServerAddr(t)
	root, _, err := cl.Mount(1)
	if err != nil {
		t.Fatalf("Mount: %v", err)
	}
	const (
		clients = 8
		rounds  = 12
	)
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		id := i
		go func() {
			errs <- func() error {
				c, err := nfs.Dial(addr)
				if err != nil {
					return fmt.Errorf("client %d: dial: %w", id, err)
				}
				defer c.Close()
				dir, _, err := c.Mkdir(root, fmt.Sprintf("c%d", id))
				if err != nil {
					return fmt.Errorf("client %d: mkdir: %w", id, err)
				}
				payload := bytes.Repeat([]byte{byte('A' + id)}, 3*core.BlockSize/2)
				for r := 0; r < rounds; r++ {
					name := fmt.Sprintf("f%d", r)
					fh, _, err := c.Create(dir, name)
					if err != nil {
						return fmt.Errorf("client %d round %d: create: %w", id, r, err)
					}
					if _, err := c.Write(fh, 0, payload); err != nil {
						return fmt.Errorf("client %d round %d: write: %w", id, r, err)
					}
					got, err := c.Read(fh, 0, len(payload))
					if err != nil {
						return fmt.Errorf("client %d round %d: read: %w", id, r, err)
					}
					if !bytes.Equal(got, payload) {
						return fmt.Errorf("client %d round %d: read-back mismatch", id, r)
					}
					switch r % 3 {
					case 0: // keep under a new name
						if err := c.Rename(dir, name, dir, name+".kept"); err != nil {
							return fmt.Errorf("client %d round %d: rename: %w", id, r, err)
						}
					case 1: // delete
						if err := c.Remove(dir, name); err != nil {
							return fmt.Errorf("client %d round %d: remove: %w", id, r, err)
						}
					case 2: // truncate and keep
						if _, err := c.SetSize(fh, int64(core.BlockSize)); err != nil {
							return fmt.Errorf("client %d round %d: setsize: %w", id, r, err)
						}
					}
					if _, err := c.Readdir(dir); err != nil {
						return fmt.Errorf("client %d round %d: readdir: %w", id, r, err)
					}
				}
				// Verify the survivors.
				ents, err := c.Readdir(dir)
				if err != nil {
					return fmt.Errorf("client %d: final readdir: %w", id, err)
				}
				if want := rounds - rounds/3; len(ents) != want {
					return fmt.Errorf("client %d: %d files survived, want %d", id, len(ents), want)
				}
				for _, ent := range ents {
					fh, attr, err := c.Lookup(dir, ent.Name)
					if err != nil {
						return fmt.Errorf("client %d: lookup %s: %w", id, ent.Name, err)
					}
					got, err := c.Read(fh, 0, len(payload))
					if err != nil {
						return fmt.Errorf("client %d: read %s: %w", id, ent.Name, err)
					}
					if !bytes.Equal(got, payload[:attr.Size]) {
						return fmt.Errorf("client %d: %s corrupted", id, ent.Name)
					}
				}
				return nil
			}()
		}()
	}
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	// The shared root holds exactly the per-client directories.
	ents, err := cl.Readdir(root)
	if err != nil || len(ents) != clients {
		t.Fatalf("root entries %v (err %v), want %d dirs", ents, err, clients)
	}
}

func TestConcurrentClients(t *testing.T) {
	_, cl, addr := startServerAddr(t)
	root, _, _ := cl.Mount(1)
	done := make(chan error, 4)
	for i := 0; i < 4; i++ {
		name := string(rune('a' + i))
		go func() {
			c2, err := nfs.Dial(addr)
			if err != nil {
				done <- err
				return
			}
			defer c2.Close()
			fh, _, err := c2.Create(root, name)
			if err != nil {
				done <- err
				return
			}
			if _, err := c2.Write(fh, 0, []byte(name)); err != nil {
				done <- err
				return
			}
			got, err := c2.Read(fh, 0, 10)
			if err == nil && string(got) != name {
				err = core.ErrInval
			}
			done <- err
		}()
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatalf("concurrent client: %v", err)
		}
	}
	ents, _ := cl.Readdir(root)
	if len(ents) != 4 {
		t.Fatalf("entries %v", ents)
	}
}
