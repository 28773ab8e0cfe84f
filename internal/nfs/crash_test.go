package nfs_test

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/nfs"
	"repro/internal/pfs"
)

// TestStaleHandleAfterReuse pins the generation check on the layout
// that recycles inode numbers: after remove+create reuses the slot,
// the old handle must answer ErrStale — never the new file's bytes.
func TestStaleHandleAfterReuse(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pfs.img")
	srv, err := pfs.Open(pfs.Config{Path: path, Blocks: 2048, CacheBlocks: 128, Layout: "ffs"})
	if err != nil {
		t.Fatalf("pfs.Open: %v", err)
	}
	defer srv.Close()
	addr, err := srv.ServeNFS("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeNFS: %v", err)
	}
	cl, err := nfs.Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	root, _, err := cl.Mount(1)
	if err != nil {
		t.Fatalf("Mount: %v", err)
	}

	old, _, err := cl.Create(root, "a")
	if err != nil {
		t.Fatalf("Create a: %v", err)
	}
	if _, err := cl.Write(old, 0, bytes.Repeat([]byte{0xAA}, core.BlockSize)); err != nil {
		t.Fatalf("Write a: %v", err)
	}
	if err := cl.Remove(root, "a"); err != nil {
		t.Fatalf("Remove a: %v", err)
	}
	fresh, _, err := cl.Create(root, "b")
	if err != nil {
		t.Fatalf("Create b: %v", err)
	}
	if fresh.File != old.File {
		t.Fatalf("ffs did not reuse inode %d (got %d); the aliasing case is not exercised", old.File, fresh.File)
	}
	if fresh.Gen == old.Gen {
		t.Fatalf("reused inode %d kept generation %d", fresh.File, fresh.Gen)
	}
	if _, err := cl.Getattr(old); err != core.ErrStale {
		t.Fatalf("getattr via reused handle: %v, want ErrStale", err)
	}
	if _, err := cl.Read(old, 0, core.BlockSize); err != core.ErrStale {
		t.Fatalf("read via reused handle: %v, want ErrStale", err)
	}
	if _, err := cl.Getattr(fresh); err != nil {
		t.Fatalf("getattr via fresh handle: %v", err)
	}
}

// wfile is one pre-crash file a worker journaled: its name, the handle
// the server minted, its content tag, and what the worker knows was
// acknowledged before the cut.
type wfile struct {
	name        string
	fh          nfs.FH
	tag         byte
	writeAcked  bool
	removeAcked bool
	loose       bool // touched by an unacknowledged op: state indeterminate
}

// TestNFSCrashSemantics cuts the power under pipelined NFS clients,
// recovers (roll-forward + NVRAM/intent replay), restarts the network
// front-end over the recovered file system, and checks the protocol's
// crash contract: every acknowledged create/write/remove is reflected,
// and every pre-crash handle either still names its file or is cleanly
// stale — recovery may renumber an inode, but a handle must never
// alias another file's bytes.
func TestNFSCrashSemantics(t *testing.T) {
	dir := t.TempDir()
	cfg := pfs.Config{
		Path:        filepath.Join(dir, "crash.img"),
		Blocks:      2048,
		Volumes:     1,
		CacheBlocks: 96,
		CacheShards: 1,
		Flush:       cache.NVRAMWhole(12),
		SegBlocks:   64,
		Layout:      "ffs",
		Seed:        11,
		Fault:       &device.FaultConfig{Seed: 11},
	}
	srv, err := pfs.Open(cfg)
	if err != nil {
		t.Fatalf("pfs.Open: %v", err)
	}
	addr, err := srv.ServeNFS("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeNFS: %v", err)
	}
	cl, err := nfs.DialPipeline(addr, 8)
	if err != nil {
		t.Fatalf("DialPipeline: %v", err)
	}
	root, _, err := cl.Mount(1)
	if err != nil {
		t.Fatalf("Mount: %v", err)
	}
	if err := srv.Sync(); err != nil {
		t.Fatalf("baseline sync: %v", err)
	}

	// Arm the cut, counting device I/Os from the durable baseline.
	plan := device.NewFaultPlan(device.FaultConfig{Seed: 11, CutAfterIO: 40, CutTearsWrite: true})
	plan.OnCut(srv.Cache.PowerOff)
	for _, drv := range srv.Members.Drivers {
		drv.SetInjector(plan)
	}

	// Pipelined churn from several workers sharing the connection:
	// create+write+remove streams racing the cut.
	const workers = 4
	journals := make([][]wfile, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			var files []wfile
			defer func() { journals[id] = files }()
			for r := 0; r < 200 && !plan.HasCut(); r++ {
				name := fmt.Sprintf("w%d-%d", id, r)
				tag := byte(10 + (id*50+r)%200)
				fh, _, err := cl.Create(root, name)
				if err != nil {
					return
				}
				f := wfile{name: name, fh: fh, tag: tag}
				if plan.HasCut() {
					f.loose = true
					files = append(files, f)
					return
				}
				_, werr := cl.Write(fh, 0, bytes.Repeat([]byte{tag}, core.BlockSize))
				if werr == nil && !plan.HasCut() {
					f.writeAcked = true
				} else {
					f.loose = true
					files = append(files, f)
					return
				}
				files = append(files, f)
				if r%3 == 2 && r >= 1 {
					victim := &files[len(files)-2]
					err := cl.Remove(root, victim.name)
					if err == nil && !plan.HasCut() {
						victim.removeAcked = true
					} else {
						victim.loose = true
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if !plan.HasCut() {
		plan.Cut() // workload drained first: crash at quiescence
	}
	cl.Close()

	// Power restored: recover over the same images (roll-forward and
	// the battery's replay in one mount) and re-serve.
	cfg.Fault = nil
	cfg.Recover = srv.Crash()
	srv2, err := pfs.Open(cfg)
	if err != nil {
		t.Fatalf("recovery mount: %v", err)
	}
	defer srv2.Close()
	addr2, err := srv2.ServeNFS("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeNFS after recovery: %v", err)
	}
	cl2, err := nfs.Dial(addr2)
	if err != nil {
		t.Fatalf("Dial after recovery: %v", err)
	}
	defer cl2.Close()
	root2, _, err := cl2.Mount(1)
	if err != nil {
		t.Fatalf("Mount after recovery: %v", err)
	}

	checked := 0
	for _, files := range journals {
		for _, f := range files {
			if f.loose {
				continue // indeterminate at the cut: either outcome is legal
			}
			if f.removeAcked {
				// An acknowledged remove must hold, and the dead handle
				// must be stale — not an alias for whoever reuses the slot.
				if _, _, err := cl2.Lookup(root2, f.name); err != core.ErrNotFound {
					t.Fatalf("%s: removed file resurrected (lookup: %v)", f.name, err)
				}
				if _, err := cl2.Getattr(f.fh); err != core.ErrStale && err != core.ErrNotFound {
					t.Fatalf("%s: dead handle answered %v, want stale", f.name, err)
				}
				checked++
				continue
			}
			// Acknowledged create+write: the file must exist with its
			// bytes. The pre-crash handle is valid only if recovery kept
			// the inode's generation; a replayed create renumbers and the
			// old handle must then be cleanly stale.
			fh, attr, err := cl2.Lookup(root2, f.name)
			if err != nil {
				t.Fatalf("%s: acknowledged create lost (lookup: %v)", f.name, err)
			}
			if f.writeAcked {
				got, err := cl2.Read(fh, 0, core.BlockSize)
				if err != nil {
					t.Fatalf("%s: read after recovery: %v", f.name, err)
				}
				want := bytes.Repeat([]byte{f.tag}, core.BlockSize)
				if !bytes.Equal(got, want[:len(got)]) || len(got) != core.BlockSize {
					t.Fatalf("%s: acknowledged bytes corrupted after recovery", f.name)
				}
			}
			_, gerr := cl2.Getattr(f.fh)
			switch {
			case gerr == nil:
				if attr.Gen != f.fh.Gen || fh.File != f.fh.File {
					t.Fatalf("%s: old handle valid but file renumbered (gen %d vs %d)",
						f.name, f.fh.Gen, attr.Gen)
				}
			case errors.Is(gerr, core.ErrStale) || errors.Is(gerr, core.ErrNotFound):
				if attr.Gen == f.fh.Gen && fh.File == f.fh.File {
					t.Fatalf("%s: handle stale but inode unchanged", f.name)
				}
			default:
				t.Fatalf("%s: old handle answered %v", f.name, gerr)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatalf("cut tripped before any operation was acknowledged; nothing verified")
	}
}
