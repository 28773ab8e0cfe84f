package pfs

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/sched"
	"repro/internal/volume"
)

// openFiles counts this process's open file descriptors (-1 where the
// platform does not list them).
func openFiles() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// A failed Open releases everything it built — the cache's flusher
// tasks, the kernel, every member driver and its image handle — and
// writes nothing: repeated opens of a striped set under the wrong
// placement leave no flusher and no file behind, and the set still
// opens as what it is.
func TestOpenFailureReleasesEverything(t *testing.T) {
	cfg := Config{Path: filepath.Join(t.TempDir(), "arr.img"), Blocks: 2048, CacheBlocks: 128,
		Volumes: 2, Placement: "striped", StripeBlocks: 4}
	srv, err := Open(cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	before := steadyFlushers()
	files := openFiles()
	bad := cfg
	bad.Placement = "affinity"
	const opens = 5
	for i := 0; i < opens; i++ {
		if _, err := Open(bad); err == nil {
			t.Fatal("affinity reopen of a striped image set accepted")
		}
	}
	if n := settleFlushers(func(n int) bool { return n == before }); n != before {
		t.Fatalf("%d flusher goroutines after %d failed opens, want %d", n, opens, before)
	}
	if n := openFiles(); n > files {
		t.Fatalf("%d open files after %d failed opens, want at most %d", n, opens, files)
	}
	srv, err = Open(cfg)
	if err != nil {
		t.Fatalf("reopen after failed opens: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// A fresh image set whose Open fails goes back to empty images, so
// the next Open formats it instead of trying to mount members that
// were sized but never formatted.
// The refusals cover both teardowns: before the cache is built (the
// array geometry) and in the mount (a format whose writes fail).
func TestFailedFreshOpenLeavesImagesFresh(t *testing.T) {
	good := Config{Path: filepath.Join(t.TempDir(), "arr.img"), Blocks: 2048, CacheBlocks: 128,
		Volumes: 2, Placement: "striped", StripeBlocks: 4}
	geometry := good
	geometry.Placement = "parity"
	format := good
	format.Fault = &device.FaultConfig{WriteErrRate: 1}
	for _, bad := range []struct {
		name string
		cfg  Config
	}{{"2-member parity", geometry}, {"failing format", format}} {
		if srv, err := Open(bad.cfg); err == nil {
			srv.Close()
			t.Fatalf("%s: fresh open succeeded", bad.name)
		}
		srv, err := Open(good)
		if err != nil {
			t.Fatalf("open after a failed fresh open (%s): %v", bad.name, err)
		}
		if err := srv.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		for i := 0; i < good.Volumes; i++ {
			path, _ := memberPath(good, i)
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// A battery over a fresh image set has nowhere to go: Open refuses it
// instead of formatting the set and dropping the battery. An empty one
// drops nothing, so the fresh set formats as usual.
func TestRecoverRefusesBatteryOnFreshImage(t *testing.T) {
	b := &Battery{CrashReport: cache.CrashReport{Survivors: []cache.Survivor{
		{Key: core.BlockKey{Vol: 1, File: 2}, Data: make([]byte, core.BlockSize), Size: core.BlockSize},
	}}}
	cfg := Config{Path: filepath.Join(t.TempDir(), "pfs.img"), Blocks: 2048, CacheBlocks: 128, Recover: b}
	if _, err := Open(cfg); err == nil || !strings.Contains(err.Error(), "fresh") {
		t.Fatalf("battery over a fresh image set: %v, want a refusal", err)
	}
	cfg.Recover = &Battery{}
	srv, err := Open(cfg)
	if err != nil {
		t.Fatalf("empty battery over a fresh image set: %v", err)
	}
	defer srv.Close()
	if srv.Recovery != nil {
		t.Fatalf("fresh image set reports a recovery: %+v", srv.Recovery)
	}
}

// An inode number recycled between two battery-backed lives: w1 is
// created, written and removed, and w2 reuses its FFS inode slot. The
// replay of w1's create finds the slot held by w2's generation and
// remaps w1 to a fresh inode; w2's create must take its number back,
// or w2's surviving data block follows w1's remap to the freed inode
// and is dropped — w2 reads back as zeros.
func TestRecoverRecycledInodeKeepsItsData(t *testing.T) {
	cfg := Config{Path: filepath.Join(t.TempDir(), "pfs.img"), Blocks: 2048, CacheBlocks: 128,
		Layout: "ffs", Flush: cache.NVRAMWhole(64)}
	srv, err := Open(cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := srv.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	want := bytes.Repeat([]byte{0x5A}, core.BlockSize)
	err = srv.Do(func(tk sched.Task) error {
		h, err := srv.Vol.Create(tk, "/w1", core.TypeRegular)
		if err != nil {
			return err
		}
		first := h.ID()
		if err := srv.Vol.Write(tk, h, bytes.Repeat([]byte{0xA5}, core.BlockSize), core.BlockSize); err != nil {
			return err
		}
		if err := srv.Vol.Close(tk, h); err != nil {
			return err
		}
		if err := srv.Vol.Remove(tk, "/w1"); err != nil {
			return err
		}
		if h, err = srv.Vol.Create(tk, "/w2", core.TypeRegular); err != nil {
			return err
		}
		if h.ID() != first {
			return fmt.Errorf("ffs did not reuse inode %d (got %d); the recycled case is not exercised", first, h.ID())
		}
		if err := srv.Vol.Write(tk, h, want, core.BlockSize); err != nil {
			return err
		}
		return srv.Vol.Close(tk, h)
	})
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	cfg.Recover = srv.Crash()
	srv2, err := Open(cfg)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer srv2.Close()
	got := make([]byte, core.BlockSize)
	err = srv2.Do(func(tk sched.Task) error {
		h, err := srv2.Vol.Open(tk, "/w2")
		if err != nil {
			return err
		}
		defer srv2.Vol.Close(tk, h)
		_, err = srv2.Vol.ReadAt(tk, h, 0, got, core.BlockSize)
		return err
	})
	if err != nil {
		t.Fatalf("read w2: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("w2 reads back %#x..., want its acknowledged %#x (recovery: %+v)", got[0], want[0], srv2.Recovery)
	}
}

// A battery round-trips through Crash and Open{Recover}: a recovery
// that fails hands it back unretired, the next one replays all of it,
// and Server.Recovery, /metrics and /statusz count what was replayed.
func TestBatteryRoundTrip(t *testing.T) {
	cfg := Config{Path: filepath.Join(t.TempDir(), "arr.img"), Blocks: 2048, CacheBlocks: 128,
		Volumes: 2, Placement: "striped", StripeBlocks: 2, Flush: cache.NVRAMWhole(64)}
	srv, err := Open(cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	// The first sync labels the array, so a recovery under the wrong
	// placement is refused below.
	if err := srv.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	const files = 4
	body := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, 2*core.BlockSize) }
	err = srv.Do(func(tk sched.Task) error {
		for i := 0; i < files; i++ {
			h, err := srv.Vol.Create(tk, fmt.Sprintf("/rt-%d", i), core.TypeRegular)
			if err != nil {
				return err
			}
			if err := srv.Vol.Write(tk, h, body(i), int64(len(body(i)))); err != nil {
				return err
			}
			if err := srv.Vol.Close(tk, h); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	b := srv.Crash()
	if len(b.Survivors) == 0 || len(b.Intents) == 0 {
		t.Fatalf("battery holds %d survivors and %d intents, want both", len(b.Survivors), len(b.Intents))
	}

	bad := cfg
	bad.Placement = "affinity"
	bad.Recover = b
	_, err = Open(bad)
	var rerr *RecoveryError
	if !errors.As(err, &rerr) {
		t.Fatalf("failed recovery returned %v, want a *RecoveryError", err)
	}
	if got := rerr.Battery; len(got.Survivors) != len(b.Survivors) || len(got.Intents) != len(b.Intents) {
		t.Fatalf("failed recovery handed back %d survivors and %d intents, want %d and %d",
			len(got.Survivors), len(got.Intents), len(b.Survivors), len(b.Intents))
	}

	cfg.Recover = rerr.Battery
	srv2, err := Open(cfg)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer srv2.Close()
	r := srv2.Recovery
	if r == nil {
		t.Fatal("no recovery report")
	}
	if r.Blocks() != len(b.Survivors) || r.Replayed == 0 {
		t.Errorf("replay consumed %d of %d survivors (%d written back)", r.Blocks(), len(b.Survivors), r.Replayed)
	}
	if n := r.IntentsApplied + r.IntentsNoop + r.IntentsDropped; n != len(b.Intents) || r.IntentsApplied == 0 {
		t.Errorf("replay consumed %d of %d intents (%d applied)", n, len(b.Intents), r.IntentsApplied)
	}
	if r.ParityApplied != 0 {
		t.Errorf("%d parity records applied on a striped set", r.ParityApplied)
	}
	err = srv2.Do(func(tk sched.Task) error {
		for i := 0; i < files; i++ {
			h, err := srv2.Vol.Open(tk, fmt.Sprintf("/rt-%d", i))
			if err != nil {
				return err
			}
			buf := make([]byte, len(body(i)))
			if _, err := srv2.Vol.Read(tk, h, buf, int64(len(buf))); err != nil {
				return err
			}
			if !bytes.Equal(buf, body(i)) {
				return fmt.Errorf("/rt-%d: acknowledged bytes lost across the crash", i)
			}
			if err := srv2.Vol.Close(tk, h); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("read back: %v", err)
	}

	var metrics strings.Builder
	if err := srv2.Registry().WritePrometheus(&metrics); err != nil {
		t.Fatal(err)
	}
	for series, want := range map[string]int{
		"pfs_recovery_parity_records":     r.ParityApplied,
		"pfs_recovery_survivors_replayed": r.Replayed,
		"pfs_recovery_intents_replayed":   r.IntentsApplied,
	} {
		if v := metricValue(t, metrics.String(), series); v != float64(want) {
			t.Errorf("%s = %v, want %d", series, v, want)
		}
	}
	line := fmt.Sprintf("parity_records=%d survivors_replayed=%d intents_replayed=%d",
		r.ParityApplied, r.Replayed, r.IntentsApplied)
	if st := srv2.renderStatusz(); !strings.Contains(st, line) {
		t.Errorf("/statusz lacks %q:\n%s", line, st)
	}
}

// The merge rules a recovery's second power cut applies, over
// hand-built batteries: the later survivor wins per block, the later
// intents are renumbered after the earlier ones, and per parity
// column the earliest record wins.
func TestMergeBatteries(t *testing.T) {
	surv := func(file core.FileID, blk core.BlockNo, ver byte) cache.Survivor {
		return cache.Survivor{Key: core.BlockKey{Vol: 1, File: file, Blk: blk}, Data: []byte{ver}, Size: 1}
	}
	intent := func(seq uint64, name string) cache.Intent {
		return cache.Intent{Seq: seq, Op: cache.IntentCreate, Vol: 1, Name: name}
	}
	column := func(file core.FileID, stripe int64, pmember int) volume.ParityRecord {
		return volume.ParityRecord{File: file, Stripe: stripe, PMember: pmember}
	}
	bat := func(s []cache.Survivor, i []cache.Intent, p []volume.ParityRecord) *Battery {
		return &Battery{CrashReport: cache.CrashReport{Survivors: s, Intents: i}, Parity: p}
	}
	full := bat([]cache.Survivor{surv(2, 0, 1)}, []cache.Intent{intent(3, "a")}, []volume.ParityRecord{column(2, 0, 0)})
	for _, tc := range []struct {
		name               string
		first, later, want *Battery
	}{
		{"survivor overwrite",
			bat([]cache.Survivor{surv(2, 0, 1), surv(2, 1, 1)}, nil, nil),
			bat([]cache.Survivor{surv(2, 1, 2), surv(1, 5, 2)}, nil, nil),
			bat([]cache.Survivor{surv(1, 5, 2), surv(2, 0, 1), surv(2, 1, 2)}, nil, nil)},
		{"intent renumbering",
			bat(nil, []cache.Intent{intent(1, "a"), intent(4, "b")}, nil),
			bat(nil, []cache.Intent{intent(1, "a"), intent(2, "c")}, nil),
			bat(nil, []cache.Intent{intent(1, "a"), intent(4, "b"), intent(5, "a"), intent(6, "c")}, nil)},
		{"first parity record per column",
			bat(nil, nil, []volume.ParityRecord{column(3, 0, 0), column(3, 1, 1)}),
			bat(nil, nil, []volume.ParityRecord{column(3, 1, 2), column(4, 0, 2)}),
			bat(nil, nil, []volume.ParityRecord{column(3, 0, 0), column(3, 1, 1), column(4, 0, 2)})},
		{"nothing new", full, &Battery{}, full},
	} {
		got := mergeBatteries(tc.first, tc.later)
		if g, w := fmt.Sprint(got.Survivors, got.Intents, got.Parity), fmt.Sprint(tc.want.Survivors, tc.want.Intents, tc.want.Parity); g != w {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, g, w)
		}
	}
}
