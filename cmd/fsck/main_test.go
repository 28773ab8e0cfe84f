package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/pfs"
	"repro/internal/sched"
)

// mkImage builds a PFS image (set) in dir and returns its path. The
// shutdown mode decides what fsck will find: "close" syncs
// everything, "crash" pulls the power with dirty state outstanding.
func mkImage(t *testing.T, dir, layout string, volumes int, shutdown string) string {
	t.Helper()
	path := filepath.Join(dir, "img")
	flush := cache.UPS()
	if shutdown == "crash" && layout == "lfs" {
		// A tiny NVRAM bound forces flushes into the log without a
		// checkpoint — the state only -rollforward can recover.
		flush = cache.NVRAMWhole(4)
	}
	srv, err := pfs.Open(pfs.Config{
		Path:        path,
		Blocks:      2048,
		Volumes:     volumes,
		Layout:      layout,
		SegBlocks:   32,
		CacheBlocks: 96,
		Flush:       flush,
	})
	if err != nil {
		t.Fatalf("pfs.Open: %v", err)
	}
	err = srv.Do(func(tk sched.Task) error {
		v := srv.Vol
		h, err := v.Create(tk, "/a", core.TypeRegular)
		if err != nil {
			return err
		}
		buf := make([]byte, core.BlockSize)
		for i := range buf {
			buf[i] = 0x3C
		}
		for b := 0; b < 6; b++ {
			if err := v.WriteAt(tk, h, int64(b)*core.BlockSize, buf, core.BlockSize); err != nil {
				return err
			}
		}
		if shutdown == "crash" && layout == "lfs" {
			// Checkpoint the baseline, then overwrite: the NVRAM
			// bound pushes the new versions into the log, where only
			// roll-forward can find them.
			if err := v.Fsync(tk, h); err != nil {
				return err
			}
			for i := range buf {
				buf[i] = 0x4D
			}
			for b := 0; b < 6; b++ {
				if err := v.WriteAt(tk, h, int64(b)*core.BlockSize, buf, core.BlockSize); err != nil {
					return err
				}
			}
		}
		return v.Close(tk, h)
	})
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	if shutdown == "crash" {
		srv.Crash()
	} else if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return path
}

// mkRedundantImage builds a width-3 mirrored or parity array image
// set with one known-content file and closes it cleanly.
func mkRedundantImage(t *testing.T, dir, placement string) string {
	t.Helper()
	path := filepath.Join(dir, "img")
	srv, err := pfs.Open(pfs.Config{
		Path:         path,
		Blocks:       2048,
		Volumes:      3,
		Layout:       "lfs",
		SegBlocks:    32,
		CacheBlocks:  96,
		Flush:        cache.UPS(),
		Placement:    placement,
		StripeBlocks: 2,
	})
	if err != nil {
		t.Fatalf("pfs.Open(%s): %v", placement, err)
	}
	err = srv.Do(func(tk sched.Task) error {
		v := srv.Vol
		h, err := v.Create(tk, "/a", core.TypeRegular)
		if err != nil {
			return err
		}
		buf := make([]byte, core.BlockSize)
		for i := range buf {
			buf[i] = 0x3C
		}
		for b := 0; b < 6; b++ {
			if err := v.WriteAt(tk, h, int64(b)*core.BlockSize, buf, core.BlockSize); err != nil {
				return err
			}
		}
		return v.Close(tk, h)
	})
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return path
}

// mkSparedImage builds a mirrored array with one idle hot spare
// pre-provisioned next to the member set and closes it cleanly: the
// "<image>.s0" file is what fsck's spare-pool report must find.
func mkSparedImage(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "img")
	srv, err := pfs.Open(pfs.Config{
		Path:         path,
		Blocks:       2048,
		Volumes:      3,
		Layout:       "lfs",
		SegBlocks:    32,
		CacheBlocks:  96,
		Flush:        cache.UPS(),
		Placement:    "mirrored",
		StripeBlocks: 2,
		Spares:       1,
	})
	if err != nil {
		t.Fatalf("pfs.Open(spared): %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return path
}

// mkHealedImage drives a supervised repair to completion — member 1
// marked dead, the spare promoted, rebuilt and scrub-verified — then
// shuts down. The surviving set carries the self-heal provenance fsck
// must surface: member 1's label records spare slot 0 as its origin,
// and the pool is empty.
func mkHealedImage(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "img")
	srv, err := pfs.Open(pfs.Config{
		Path:           path,
		Blocks:         2048,
		Volumes:        3,
		Layout:         "lfs",
		SegBlocks:      32,
		CacheBlocks:    96,
		Flush:          cache.UPS(),
		Placement:      "mirrored",
		StripeBlocks:   2,
		Spares:         1,
		SelfHeal:       true,
		HealthInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("pfs.Open(healed): %v", err)
	}
	err = srv.Do(func(tk sched.Task) error {
		v := srv.Vol
		h, err := v.Create(tk, "/a", core.TypeRegular)
		if err != nil {
			return err
		}
		buf := bytes.Repeat([]byte{0x3C}, core.BlockSize)
		for b := 0; b < 6; b++ {
			if err := v.WriteAt(tk, h, int64(b)*core.BlockSize, buf, core.BlockSize); err != nil {
				return err
			}
		}
		return v.Close(tk, h)
	})
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	if err := srv.MarkMemberDead(1); err != nil {
		t.Fatalf("MarkMemberDead: %v", err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for len(srv.HealEvents()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no supervised repair within 20s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if ev := srv.HealEvents()[0]; ev.Err != "" || ev.Spare != 0 {
		t.Fatalf("heal event %+v, want clean promotion of spare 0", ev)
	}
	if err := srv.Shutdown(); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	return path
}

// flipDataByte corrupts one byte inside a data block of the image
// set: it scans the members for a block-aligned run holding the test
// file's fill byte and flips its first byte. The per-member check
// cannot see this (data blocks carry no member-local checksum) — only
// the redundancy cross-check can.
func flipDataByte(t *testing.T, base string) {
	t.Helper()
	for i := 0; i < 3; i++ {
		path := fmt.Sprintf("%s.v%d", base, i)
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for off := int64(0); off+core.BlockSize <= int64(len(buf)); off += core.BlockSize {
			blk := buf[off : off+core.BlockSize]
			full := true
			for _, b := range blk {
				if b != 0x3C {
					full = false
					break
				}
			}
			if !full {
				continue
			}
			blk[0] ^= 0xFF
			if err := os.WriteFile(path, buf, 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatal("no data block found to corrupt")
}

// damagedSuper copies the single-volume image at src and overwrites
// one little-endian superblock field of the copy (a 4-byte field when
// wide is false, 8 bytes otherwise).
func damagedSuper(t *testing.T, src string, off int, wide bool, val uint64) string {
	t.Helper()
	img, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if wide {
		binary.LittleEndian.PutUint64(img[off:], val)
	} else {
		binary.LittleEndian.PutUint32(img[off:], uint32(val))
	}
	path := filepath.Join(t.TempDir(), "damaged")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestExitCodeTable is the golden table: every (image state, flags)
// row must produce its documented exit code and output.
func TestExitCodeTable(t *testing.T) {
	cleanLFS := mkImage(t, t.TempDir(), "lfs", 1, "close")
	crashedLFS := mkImage(t, t.TempDir(), "lfs", 1, "crash")
	crashedFFS := mkImage(t, t.TempDir(), "ffs", 1, "crash")
	array3 := mkImage(t, t.TempDir(), "lfs", 3, "close")
	mirror3 := mkRedundantImage(t, t.TempDir(), "mirrored")
	parity3 := mkRedundantImage(t, t.TempDir(), "parity")
	degraded := mkRedundantImage(t, t.TempDir(), "parity")
	if err := os.Remove(degraded + ".v1"); err != nil {
		t.Fatal(err)
	}
	lost2 := mkRedundantImage(t, t.TempDir(), "mirrored")
	for _, m := range []string{".v1", ".v2"} {
		if err := os.Remove(lost2 + m); err != nil {
			t.Fatal(err)
		}
	}
	spared := mkSparedImage(t, t.TempDir())
	healed := mkHealedImage(t, t.TempDir())
	affinityLost := mkImage(t, t.TempDir(), "lfs", 3, "close")
	if err := os.Remove(affinityLost + ".v2"); err != nil {
		t.Fatal(err)
	}
	// LFS superblock fields: SegBlocks at byte 4, the segment count at 8.
	zeroSegBlocks := damagedSuper(t, cleanLFS, 4, false, 0)
	hugeNsegs := damagedSuper(t, cleanLFS, 8, true, 1<<40)
	// FFS superblock fields: BlocksPerGroup at byte 4, InodesPerGroup
	// at 8, the group count at 12.
	cleanFFS := mkImage(t, t.TempDir(), "ffs", 1, "close")
	ffsZeroBPG := damagedSuper(t, cleanFFS, 4, false, 0)
	ffsHugeBPG := damagedSuper(t, cleanFFS, 4, false, 1<<30)
	ffsHugeGroups := damagedSuper(t, cleanFFS, 12, false, 1<<30)
	ffsZeroIPG := damagedSuper(t, cleanFFS, 8, false, 0)
	// Members 0 and 1 of a labeled set trade places.
	shuffled := mkImage(t, t.TempDir(), "lfs", 3, "close")
	for _, mv := range [][2]string{{".v0", ".tmp"}, {".v1", ".v0"}, {".tmp", ".v1"}} {
		if err := os.Rename(shuffled+mv[0], shuffled+mv[1]); err != nil {
			t.Fatal(err)
		}
	}
	// Member 2 of a mirrored set stands in for an affinity set's own.
	foreign := mkImage(t, t.TempDir(), "lfs", 3, "close")
	if img, err := os.ReadFile(mirror3 + ".v2"); err != nil {
		t.Fatal(err)
	} else if err := os.WriteFile(foreign+".v2", img, 0o644); err != nil {
		t.Fatal(err)
	}
	degradedRoll := mkRedundantImage(t, t.TempDir(), "parity")
	if err := os.Remove(degradedRoll + ".v1"); err != nil {
		t.Fatal(err)
	}
	garbage := filepath.Join(t.TempDir(), "garbage")
	if err := os.WriteFile(garbage, make([]byte, 1<<20), 0o644); err != nil {
		t.Fatal(err)
	}

	rows := []struct {
		name string
		args []string
		want int
		grep string
	}{
		{"clean-lfs", []string{"-image", cleanLFS}, 0, "clean"},
		{"missing-image", []string{"-image", filepath.Join(t.TempDir(), "nope")}, 2, ""},
		{"garbage-image", []string{"-image", garbage}, 2, "mount:"},
		{"superblock-zero-segblocks", []string{"-image", zeroSegBlocks}, 2, "mount:"},
		{"superblock-huge-nsegs", []string{"-image", hugeNsegs, "-rollforward"}, 2, "recover:"},
		{"crashed-ffs-dirty", []string{"-image", crashedFFS, "-layout", "ffs"}, 1, "inconsistencies"},
		{"crashed-ffs-repaired", []string{"-image", crashedFFS, "-layout", "ffs", "-repair"}, 0, "repaired"},
		{"crashed-lfs-rollforward", []string{"-image", crashedLFS, "-rollforward"}, 0, "rolled forward"},
		{"clean-array", []string{"-image", array3, "-volumes", "3"}, 0, "array label: 3 volumes"},
		{"mirrored-array-clean", []string{"-image", mirror3, "-volumes", "3"}, 0, "redundancy cross-check:"},
		{"parity-array-clean", []string{"-image", parity3, "-volumes", "3"}, 0, "0 mismatches"},
		{"parity-member-dead", []string{"-image", degraded, "-volumes", "3"}, 0, "member dead"},
		{"spare-pool-idle", []string{"-image", spared, "-volumes", "3"}, 0, "spare pool: 1 idle image(s)"},
		{"healed-lineage", []string{"-image", healed, "-volumes", "3"}, 0, "member 1: promoted from spare slot 0 (self-heal rebuild)"},
		{"two-members-missing", []string{"-image", lost2, "-volumes", "3"}, 2, ""},
		{"nonredundant-member-missing", []string{"-image", affinityLost, "-volumes", "3"}, 2, "not redundant"},
		{"array-rollforward", []string{"-image", array3, "-volumes", "3", "-rollforward"}, 0, "array label: 3 volumes"},
		{"array-width-mismatch", []string{"-image", array3, "-volumes", "2"}, 1, "label says 3 volumes, checked 2"},
		{"shuffled-members", []string{"-image", shuffled, "-volumes", "3"}, 1, "shuffled"},
		{"foreign-member", []string{"-image", foreign, "-volumes", "3"}, 1, "geometry mismatch"},
		{"parity-member-dead-rollforward", []string{"-image", degradedRoll, "-volumes", "3", "-rollforward"}, 0, "member dead"},
		{"ffs-superblock-zero-bpg", []string{"-image", ffsZeroBPG, "-layout", "ffs"}, 2, "mount:"},
		{"ffs-superblock-huge-bpg", []string{"-image", ffsHugeBPG, "-layout", "ffs"}, 2, "mount:"},
		{"ffs-superblock-huge-groups", []string{"-image", ffsHugeGroups, "-layout", "ffs"}, 2, "mount:"},
		{"ffs-superblock-zero-ipg", []string{"-image", ffsZeroIPG, "-layout", "ffs"}, 2, "mount:"},
		{"volumes-zero", []string{"-image", cleanLFS, "-volumes", "0"}, 2, ""},
		{"repair-on-lfs-misuse", []string{"-image", cleanLFS, "-repair"}, 2, ""},
		{"rollforward-on-ffs-misuse", []string{"-image", crashedFFS, "-layout", "ffs", "-rollforward"}, 2, ""},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			got := run(row.args, &out, &errb)
			if got != row.want {
				t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", got, row.want, out.String(), errb.String())
			}
			if row.grep != "" && !strings.Contains(out.String(), row.grep) {
				t.Fatalf("output lacks %q:\n%s", row.grep, out.String())
			}
		})
	}

	// Repair converges: the repaired FFS image now checks clean
	// without flags, and repeated rollforward stays clean.
	var out bytes.Buffer
	if got := run([]string{"-image", crashedFFS, "-layout", "ffs"}, &out, &out); got != 0 {
		t.Fatalf("ffs image dirty again after repair (exit %d):\n%s", got, out.String())
	}
	out.Reset()
	if got := run([]string{"-image", crashedLFS}, &out, &out); got != 0 {
		t.Fatalf("lfs image dirty after rollforward (exit %d):\n%s", got, out.String())
	}

	// The degraded JSON shape: the dead member is called out, the
	// cross-check skips its columns, and the set is still clean.
	out.Reset()
	if got := run([]string{"-image", degraded, "-volumes", "3", "-json"}, &out, &out); got != 0 {
		t.Fatalf("degraded set not clean (exit %d):\n%s", got, out.String())
	}
	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out.String())
	}
	switch {
	case !rep.Clean || !rep.Degraded:
		t.Fatalf("degraded set: clean=%v degraded=%v", rep.Clean, rep.Degraded)
	case rep.DeadMember == nil || *rep.DeadMember != 1 || !rep.Volumes[1].Dead:
		t.Fatalf("dead member not reported: %+v", rep)
	case rep.Scrub == nil || rep.Scrub.Skipped == 0 || rep.Scrub.Mismatches != 0:
		t.Fatalf("cross-check stats: %+v", rep.Scrub)
	}

	// Recovery goes through the same array: the degraded set rolls
	// forward around its dead member and is scrubbed afterwards.
	out.Reset()
	if got := run([]string{"-image", degradedRoll, "-volumes", "3", "-rollforward", "-json"}, &out, &out); got != 0 {
		t.Fatalf("degraded roll-forward not clean (exit %d):\n%s", got, out.String())
	}
	rep = report{}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out.String())
	}
	switch {
	case !rep.Clean || !rep.Degraded || rep.DeadMember == nil || *rep.DeadMember != 1:
		t.Fatalf("degraded roll-forward: %+v", rep)
	case rep.Scrub == nil || rep.Scrub.Skipped == 0 || rep.Scrub.Mismatches != 0:
		t.Fatalf("no scrub after recovery: %+v", rep.Scrub)
	}

	// The spare-pool JSON shape: the idle image is counted and listed,
	// and a pool is informative — never dirties a clean set.
	out.Reset()
	if got := run([]string{"-image", spared, "-volumes", "3", "-json"}, &out, &out); got != 0 {
		t.Fatalf("spared set not clean (exit %d):\n%s", got, out.String())
	}
	rep = report{}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out.String())
	}
	switch {
	case !rep.Clean || rep.Degraded:
		t.Fatalf("spared set: clean=%v degraded=%v", rep.Clean, rep.Degraded)
	case rep.Spares == nil || rep.Spares.Count != 1 || len(rep.Spares.Images) != 1:
		t.Fatalf("spare pool not reported: %+v", rep.Spares)
	case rep.Spares.Images[0] != spared+".s0":
		t.Fatalf("spare image %q, want %q", rep.Spares.Images[0], spared+".s0")
	case rep.Health != nil:
		t.Fatalf("untouched set reports promotions: %+v", rep.Health)
	}

	// The healed JSON shape: lineage on the rebuilt member, the pool
	// consumed, the set clean and fully redundant again.
	out.Reset()
	if got := run([]string{"-image", healed, "-volumes", "3", "-json"}, &out, &out); got != 0 {
		t.Fatalf("healed set not clean (exit %d):\n%s", got, out.String())
	}
	rep = report{}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out.String())
	}
	switch {
	case !rep.Clean || rep.Degraded:
		t.Fatalf("healed set: clean=%v degraded=%v", rep.Clean, rep.Degraded)
	case rep.Volumes[1].Origin == nil || *rep.Volumes[1].Origin != 0:
		t.Fatalf("member 1 lineage missing: %+v", rep.Volumes[1])
	case rep.Health == nil || len(rep.Health.Promoted) != 1 ||
		rep.Health.Promoted[0] != (promotion{Member: 1, Spare: 0}):
		t.Fatalf("promotion not reported: %+v", rep.Health)
	case rep.Spares != nil:
		t.Fatalf("consumed pool still reported: %+v", rep.Spares)
	case rep.Scrub == nil || rep.Scrub.Mismatches != 0 || rep.Scrub.Skipped != 0:
		t.Fatalf("healed cross-check: %+v", rep.Scrub)
	}

	// A silently diverged copy: the per-member checks pass, but the
	// cross-check finds the mismatch and the set exits dirty.
	corrupt := mkRedundantImage(t, t.TempDir(), "mirrored")
	flipDataByte(t, corrupt)
	out.Reset()
	if got := run([]string{"-image", corrupt, "-volumes", "3"}, &out, &out); got != 1 {
		t.Fatalf("corrupted mirror exit %d, want 1:\n%s", got, out.String())
	}
	if !strings.Contains(out.String(), "mismatched columns") {
		t.Fatalf("output lacks mismatch report:\n%s", out.String())
	}
}

// TestJSONReport pins the machine-readable shape.
func TestJSONReport(t *testing.T) {
	img := mkImage(t, t.TempDir(), "lfs", 1, "close")
	var out, errb bytes.Buffer
	if got := run([]string{"-image", img, "-json"}, &out, &errb); got != 0 {
		t.Fatalf("exit %d: %s", got, errb.String())
	}
	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out.String())
	}
	if !rep.Clean || len(rep.Volumes) != 1 || rep.Volumes[0].Layout != "lfs" {
		t.Fatalf("unexpected report: %+v", rep)
	}
}
