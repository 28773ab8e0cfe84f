package volume

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/ffs"
	"repro/internal/layout"
	"repro/internal/lfs"
	"repro/internal/sched"
)

// redundantConfigs enumerates the redundant placements the tests
// sweep: mirrored pairs and rotated parity at a few widths.
func redundantConfigs() []struct {
	name  string
	width int
	cfg   Config
} {
	return []struct {
		name  string
		width int
		cfg   Config
	}{
		{"mirrored-2", 2, Config{Placement: PlacementMirrored, StripeBlocks: 2}},
		{"mirrored-3", 3, Config{Placement: PlacementMirrored, StripeBlocks: 2}},
		{"parity-3", 3, Config{Placement: PlacementParity, StripeBlocks: 2}},
		{"parity-4", 4, Config{Placement: PlacementParity, StripeBlocks: 3}},
	}
}

// TestRedundantWriteReadRemount writes through each redundant
// placement, syncs, remounts fresh layouts over the same disks and
// checks content and size survive — the healthy-path baseline.
func TestRedundantWriteReadRemount(t *testing.T) {
	for _, rc := range redundantConfigs() {
		t.Run(rc.name, func(t *testing.T) {
			k := sched.NewReal(1)
			r := newRig(t, k, nil, rc.width, rc.cfg)
			var ino *layout.Inode
			const nblocks = 23
			r.do(t, func(tk sched.Task) error {
				if err := r.arr.Format(tk); err != nil {
					return err
				}
				if err := r.arr.Mount(tk); err != nil {
					return err
				}
				if _, err := r.arr.AllocInode(tk, core.TypeDirectory); err != nil {
					return err
				}
				ino, _ = writeFile(t, tk, r.arr, nblocks, 100)
				checkFile(t, tk, r.arr, ino, nblocks)
				return r.arr.Sync(tk)
			})

			r2 := newRig(t, k, r.drvs, rc.width, rc.cfg)
			r2.do(t, func(tk sched.Task) error {
				if err := r2.arr.Mount(tk); err != nil {
					return err
				}
				got, err := r2.arr.GetInode(tk, ino.ID)
				if err != nil {
					return err
				}
				if got.Size != ino.Size {
					t.Fatalf("size %d after remount, want %d", got.Size, ino.Size)
				}
				checkFile(t, tk, r2.arr, got, nblocks)
				return nil
			})
		})
	}
}

// TestDegradedServeEveryMember kills each member in turn (on a fresh
// remount of the same disks) and checks every byte is still served —
// reconstruction from the mirror copy or the parity column.
func TestDegradedServeEveryMember(t *testing.T) {
	for _, rc := range redundantConfigs() {
		t.Run(rc.name, func(t *testing.T) {
			k := sched.NewReal(1)
			r := newRig(t, k, nil, rc.width, rc.cfg)
			var ino *layout.Inode
			const nblocks = 17
			r.do(t, func(tk sched.Task) error {
				r.arr.Format(tk)
				r.arr.Mount(tk)
				if _, err := r.arr.AllocInode(tk, core.TypeDirectory); err != nil {
					return err
				}
				ino, _ = writeFile(t, tk, r.arr, nblocks, core.BlockSize)
				// Partial rewrites exercise the parity RMW path.
				for _, b := range []core.BlockNo{1, 5, 11} {
					if err := r.arr.WriteBlocks(tk, ino, []layout.BlockWrite{
						{Blk: b, Data: pattern(b, core.BlockSize), Size: core.BlockSize},
					}); err != nil {
						return err
					}
				}
				return r.arr.Sync(tk)
			})

			for m := 0; m < rc.width; m++ {
				r2 := newRig(t, k, r.drvs, rc.width, rc.cfg)
				r2.do(t, func(tk sched.Task) error {
					if err := r2.arr.Mount(tk); err != nil {
						return err
					}
					if err := r2.arr.KillMember(m); err != nil {
						return err
					}
					got, err := r2.arr.GetInode(tk, ino.ID)
					if err != nil {
						return err
					}
					checkFile(t, tk, r2.arr, got, nblocks)
					return nil
				})
				if r2.arr.DegradedReads() == 0 {
					t.Fatalf("kill member %d: no read needed reconstruction over %d blocks", m, nblocks)
				}
			}
		})
	}
}

// TestDegradedWritesThenRebuild writes while a member is dead (mirror
// single-copy, parity reconstruct-write/skip), rebuilds the member
// onto a fresh replacement, then kills a *different* member and checks
// every byte — which proves the rebuilt member's content is real, not
// still being served by reconstruction around a hole.
func TestDegradedWritesThenRebuild(t *testing.T) {
	for _, rc := range redundantConfigs() {
		if rc.width < 3 {
			continue // needs a second member to lose after the rebuild
		}
		t.Run(rc.name, func(t *testing.T) {
			k := sched.NewReal(1)
			r := newRig(t, k, nil, rc.width, rc.cfg)
			const nblocks = 19
			const dead = 1
			var ino *layout.Inode
			r.do(t, func(tk sched.Task) error {
				r.arr.Format(tk)
				r.arr.Mount(tk)
				if _, err := r.arr.AllocInode(tk, core.TypeDirectory); err != nil {
					return err
				}
				ino, _ = writeFile(t, tk, r.arr, 7, core.BlockSize)
				if err := r.arr.Sync(tk); err != nil {
					return err
				}
				if err := r.arr.KillMember(dead); err != nil {
					return err
				}
				// Degraded writes: overwrite and extend past the healthy
				// extent, single blocks and batches both.
				var ws []layout.BlockWrite
				for b := 0; b < nblocks; b++ {
					ws = append(ws, layout.BlockWrite{Blk: core.BlockNo(b), Data: pattern(core.BlockNo(b), core.BlockSize), Size: core.BlockSize})
				}
				if err := r.arr.WriteBlocks(tk, ino, ws); err != nil {
					return err
				}
				ino.Size = int64(nblocks) * core.BlockSize
				if err := r.arr.UpdateInode(tk, ino); err != nil {
					return err
				}
				checkFile(t, tk, r.arr, ino, nblocks)

				// Rebuild onto a fresh stack.
				drv := device.NewMemDriver(k, "replacement", rigBlocks, nil)
				part := layout.NewPartition(drv, dead, 0, rigBlocks, false)
				repl := lfs.New(k, fmt.Sprintf("d%d", dead), part, lfs.Config{SegBlocks: 32})
				if err := r.arr.Rebuild(tk, repl); err != nil {
					return err
				}
				if r.arr.Degraded() {
					t.Fatal("array still degraded after rebuild")
				}
				done, tot := r.arr.RebuildProgress()
				if tot == 0 || done != tot {
					t.Fatalf("rebuild progress %d/%d, want complete and non-empty", done, tot)
				}
				checkFile(t, tk, r.arr, ino, nblocks)

				// The acid test: lose a different member now. Every block
				// whose surviving copy/column runs through the rebuilt
				// member must still read back.
				other := (dead + 1) % rc.width
				if err := r.arr.KillMember(other); err != nil {
					return err
				}
				checkFile(t, tk, r.arr, ino, nblocks)

				// Scrub (ignoring the dead member) stays clean.
				st, err := r.arr.Scrub(tk, false)
				if err != nil {
					return err
				}
				if st.Mismatches != 0 {
					t.Fatalf("scrub found %d mismatches after rebuild", st.Mismatches)
				}
				return nil
			})
		})
	}
}

// TestRebuildSurvivesRemount rebuilds a member and then remounts the
// array from disk with the replacement's driver in the dead slot —
// the rebuilt image must be a first-class member, label included.
func TestRebuildSurvivesRemount(t *testing.T) {
	for _, rc := range redundantConfigs() {
		t.Run(rc.name, func(t *testing.T) {
			k := sched.NewReal(1)
			r := newRig(t, k, nil, rc.width, rc.cfg)
			const nblocks = 13
			const dead = 0
			var ino *layout.Inode
			replDrv := device.NewMemDriver(k, "replacement", rigBlocks, nil)
			r.do(t, func(tk sched.Task) error {
				r.arr.Format(tk)
				r.arr.Mount(tk)
				if _, err := r.arr.AllocInode(tk, core.TypeDirectory); err != nil {
					return err
				}
				ino, _ = writeFile(t, tk, r.arr, nblocks, 333)
				if err := r.arr.Sync(tk); err != nil {
					return err
				}
				if err := r.arr.KillMember(dead); err != nil {
					return err
				}
				part := layout.NewPartition(replDrv, dead, 0, rigBlocks, false)
				repl := lfs.New(k, fmt.Sprintf("d%d", dead), part, lfs.Config{SegBlocks: 32})
				return r.arr.Rebuild(tk, repl)
			})

			drvs2 := append([]device.Driver(nil), r.drvs...)
			drvs2[dead] = replDrv
			r2 := newRig(t, k, drvs2, rc.width, rc.cfg)
			r2.do(t, func(tk sched.Task) error {
				if err := r2.arr.Mount(tk); err != nil {
					return err
				}
				got, err := r2.arr.GetInode(tk, ino.ID)
				if err != nil {
					return err
				}
				if got.Size != ino.Size {
					t.Fatalf("size %d after rebuilt remount, want %d", got.Size, ino.Size)
				}
				checkFile(t, tk, r2.arr, got, nblocks)
				st, err := r2.arr.Scrub(tk, false)
				if err != nil {
					return err
				}
				if st.Mismatches != 0 || st.Skipped != 0 {
					t.Fatalf("scrub after rebuilt remount: %+v", st)
				}
				return nil
			})
		})
	}
}

// TestKillRefusedWithoutRedundancy checks the placements that hold no
// second copy refuse to run degraded, and the single-fault model
// rejects a second death.
func TestKillRefusedWithoutRedundancy(t *testing.T) {
	k := sched.NewReal(1)
	for _, cfg := range []Config{
		{Placement: PlacementAffinity},
		{Placement: PlacementStriped, StripeBlocks: 2},
	} {
		_, arr := buildArray(t, k, nil, 3, cfg)
		if err := arr.KillMember(1); err == nil {
			t.Fatalf("placement %s accepted a member death", cfg.Placement)
		}
	}
	_, arr := buildArray(t, k, nil, 3, Config{Placement: PlacementParity, StripeBlocks: 2})
	if err := arr.KillMember(1); err != nil {
		t.Fatalf("first death refused: %v", err)
	}
	if err := arr.KillMember(1); err != nil {
		t.Fatalf("idempotent re-kill refused: %v", err)
	}
	if err := arr.KillMember(2); err == nil {
		t.Fatal("second member death accepted (single-fault model)")
	}
}

// TestRedundantGeometryMismatchBothKernels extends the mismatch matrix
// to the redundant placements: wrong chunk width, mirrored image
// mounted as parity (and vice versa), wrong member count and a
// shuffled member order must all be rejected at mount, under both
// kernels.
func TestRedundantGeometryMismatchBothKernels(t *testing.T) {
	for kname, mk := range kernels() {
		t.Run(kname, func(t *testing.T) {
			for _, rc := range []struct {
				name string
				good Config
			}{
				{"mirrored", Config{Placement: PlacementMirrored, StripeBlocks: 4}},
				{"parity", Config{Placement: PlacementParity, StripeBlocks: 4}},
			} {
				t.Run(rc.name, func(t *testing.T) {
					k := mk()
					drvs, arr := buildArray(t, k, nil, 3, rc.good)
					runK(t, k, func(tk sched.Task) {
						if err := arr.Format(tk); err != nil {
							t.Fatalf("Format: %v", err)
						}
						if err := arr.Mount(tk); err != nil {
							t.Fatalf("Mount: %v", err)
						}
						if _, err := arr.AllocInode(tk, core.TypeDirectory); err != nil {
							t.Fatalf("alloc root: %v", err)
						}
						if err := arr.Sync(tk); err != nil {
							t.Fatalf("Sync: %v", err)
						}

						otherRed := Config{Placement: PlacementParity, StripeBlocks: 4}
						if rc.good.Placement == PlacementParity {
							otherRed = Config{Placement: PlacementMirrored, StripeBlocks: 4}
						}
						cases := []struct {
							name string
							drvs []device.Driver
							cfg  Config
							want string
						}{
							{"chunk-width", drvs, Config{Placement: rc.good.Placement, StripeBlocks: 8}, "stripe"},
							{"placement-striped", drvs, Config{Placement: PlacementStriped, StripeBlocks: 4}, "placement"},
							{"placement-redundant", drvs, otherRed, "placement"},
							{"member-order", []device.Driver{drvs[2], drvs[0], drvs[1]}, rc.good, "member"},
						}
						for _, tc := range cases {
							_, bad := buildArray(t, k, tc.drvs, 3, tc.cfg)
							got := bad.Mount(tk)
							if got == nil {
								t.Fatalf("%s mismatch accepted", tc.name)
							}
							if !strings.Contains(got.Error(), tc.want) {
								t.Fatalf("%s error %q does not name the axis (%q)", tc.name, got, tc.want)
							}
							if !errors.Is(got, ErrGeometry) {
								t.Fatalf("%s error %q is not ErrGeometry", tc.name, got)
							}
						}
						_, ok := buildArray(t, k, drvs, 3, rc.good)
						if err := ok.Mount(tk); err != nil {
							t.Fatalf("matching geometry rejected: %v", err)
						}
					})
				})
			}
		})
	}
}

// TestDegradedCrashRecover crashes (remounts) a degraded array and
// recovers it with the member still missing: every synced byte must
// be served by reconstruction, and a subsequent rebuild returns the
// array to full health.
func TestDegradedCrashRecover(t *testing.T) {
	for _, rc := range redundantConfigs() {
		t.Run(rc.name, func(t *testing.T) {
			k := sched.NewReal(1)
			r := newRig(t, k, nil, rc.width, rc.cfg)
			const nblocks = 11
			const dead = 1
			var ino *layout.Inode
			r.do(t, func(tk sched.Task) error {
				r.arr.Format(tk)
				r.arr.Mount(tk)
				if _, err := r.arr.AllocInode(tk, core.TypeDirectory); err != nil {
					return err
				}
				ino, _ = writeFile(t, tk, r.arr, 5, core.BlockSize)
				if err := r.arr.Sync(tk); err != nil {
					return err
				}
				if err := r.arr.KillMember(dead); err != nil {
					return err
				}
				var ws []layout.BlockWrite
				for b := 0; b < nblocks; b++ {
					ws = append(ws, layout.BlockWrite{Blk: core.BlockNo(b), Data: pattern(core.BlockNo(b), core.BlockSize), Size: core.BlockSize})
				}
				if err := r.arr.WriteBlocks(tk, ino, ws); err != nil {
					return err
				}
				ino.Size = int64(nblocks) * core.BlockSize
				if err := r.arr.UpdateInode(tk, ino); err != nil {
					return err
				}
				return r.arr.Sync(tk)
			})

			// "Crash": fresh layouts over the surviving disks; the
			// harness knows which member is gone and says so up front.
			r2 := newRig(t, k, r.drvs, rc.width, rc.cfg)
			r2.do(t, func(tk sched.Task) error {
				if err := r2.arr.KillMember(dead); err != nil {
					return err
				}
				if _, err := r2.arr.Recover(tk); err != nil {
					return err
				}
				got, err := r2.arr.GetInode(tk, ino.ID)
				if err != nil {
					return err
				}
				if got.Size != int64(nblocks)*core.BlockSize {
					t.Fatalf("size %d after degraded recovery, want %d", got.Size, int64(nblocks)*core.BlockSize)
				}
				checkFile(t, tk, r2.arr, got, nblocks)

				drv := device.NewMemDriver(k, "replacement", rigBlocks, nil)
				part := layout.NewPartition(drv, dead, 0, rigBlocks, false)
				repl := lfs.New(k, fmt.Sprintf("d%d", dead), part, lfs.Config{SegBlocks: 32})
				if err := r2.arr.Rebuild(tk, repl); err != nil {
					return err
				}
				st, err := r2.arr.Scrub(tk, false)
				if err != nil {
					return err
				}
				if st.Mismatches != 0 || st.Skipped != 0 {
					t.Fatalf("scrub after recover+rebuild: %+v", st)
				}
				checkFile(t, tk, r2.arr, got, nblocks)
				return nil
			})
		})
	}
}

// TestScrubRepairsTornParity tears a parity column the way a crash
// between the data write and the parity write does (by writing one
// member's share behind the array's back) and checks a repairing
// scrub restores the XOR invariant.
func TestScrubRepairsTornParity(t *testing.T) {
	k := sched.NewReal(1)
	cfg := Config{Placement: PlacementParity, StripeBlocks: 2}
	r := newRig(t, k, nil, 3, cfg)
	r.do(t, func(tk sched.Task) error {
		r.arr.Format(tk)
		r.arr.Mount(tk)
		if _, err := r.arr.AllocInode(tk, core.TypeDirectory); err != nil {
			return err
		}
		ino, _ := writeFile(t, tk, r.arr, 8, core.BlockSize)
		if err := r.arr.Sync(tk); err != nil {
			return err
		}
		// Corrupt one data block behind the array's back: write garbage
		// straight to the member share.
		af := r.arr.lookup(tk, ino.ID)
		d := r.arr.pl.dataCell(af.home, 3)
		m, lb := d.member, d.local
		garbage := bytes.Repeat([]byte{0xAB}, core.BlockSize)
		if err := r.arr.Subs()[m].WriteBlocks(tk, af.shadows[m], []layout.BlockWrite{
			{Blk: lb, Data: garbage, Size: core.BlockSize},
		}); err != nil {
			return err
		}
		st, err := r.arr.Scrub(tk, false)
		if err != nil {
			return err
		}
		if st.Mismatches == 0 {
			t.Fatal("scrub missed a torn parity column")
		}
		st, err = r.arr.Scrub(tk, true)
		if err != nil {
			return err
		}
		if st.Repaired == 0 {
			t.Fatal("repairing scrub fixed nothing")
		}
		st, err = r.arr.Scrub(tk, false)
		if err != nil {
			return err
		}
		if st.Mismatches != 0 {
			t.Fatalf("%d mismatches survive the repair", st.Mismatches)
		}
		// The parity now matches the (garbage) data: reconstruction
		// through any member loss returns exactly what is on disk.
		if err := r.arr.KillMember(m); err != nil {
			return err
		}
		buf := make([]byte, core.BlockSize)
		if err := readOne(tk, r.arr, ino, 3, buf); err != nil {
			return err
		}
		if !bytes.Equal(buf, garbage) {
			t.Fatal("degraded read disagrees with the scrubbed column")
		}
		return nil
	})
}

// TestRebuildUnderTraffic hammers the array with concurrent writers
// and readers while a rebuild runs — the interlock under test is the
// attach protocol (new writes must reach the replacement) and the
// per-file copy locking. Run with -race.
func TestRebuildUnderTraffic(t *testing.T) {
	for _, rc := range []struct {
		name  string
		width int
		cfg   Config
	}{
		{"mirrored-3", 3, Config{Placement: PlacementMirrored, StripeBlocks: 2}},
		{"parity-3", 3, Config{Placement: PlacementParity, StripeBlocks: 2}},
	} {
		t.Run(rc.name, func(t *testing.T) {
			k := sched.NewReal(4)
			r := newRig(t, k, nil, rc.width, rc.cfg)
			const files = 6
			const nblocks = 8
			const dead = 2
			inos := make([]*layout.Inode, files)
			r.do(t, func(tk sched.Task) error {
				r.arr.Format(tk)
				r.arr.Mount(tk)
				if _, err := r.arr.AllocInode(tk, core.TypeDirectory); err != nil {
					return err
				}
				for i := range inos {
					inos[i], _ = writeFile(t, tk, r.arr, nblocks, core.BlockSize)
				}
				if err := r.arr.Sync(tk); err != nil {
					return err
				}
				return r.arr.KillMember(dead)
			})

			// Writers rewrite their file repeatedly while the rebuild
			// copies; a reader sweeps all files.
			var wg sync.WaitGroup
			errc := make(chan error, files+2)
			for i := 0; i < files; i++ {
				i := i
				wg.Add(1)
				k.Go(fmt.Sprintf("writer%d", i), func(tk sched.Task) {
					defer wg.Done()
					for round := 0; round < 5; round++ {
						for b := 0; b < nblocks; b++ {
							if err := r.arr.WriteBlocks(tk, inos[i], []layout.BlockWrite{
								{Blk: core.BlockNo(b), Data: pattern(core.BlockNo(b), core.BlockSize), Size: core.BlockSize},
							}); err != nil {
								errc <- fmt.Errorf("writer %d: %w", i, err)
								return
							}
						}
					}
				})
			}
			wg.Add(1)
			k.Go("reader", func(tk sched.Task) {
				defer wg.Done()
				buf := make([]byte, core.BlockSize)
				for round := 0; round < 5; round++ {
					for i := 0; i < files; i++ {
						for b := 0; b < nblocks; b++ {
							if err := readOne(tk, r.arr, inos[i], core.BlockNo(b), buf); err != nil {
								errc <- fmt.Errorf("reader: %w", err)
								return
							}
						}
					}
				}
			})
			wg.Add(1)
			k.Go("rebuild", func(tk sched.Task) {
				defer wg.Done()
				drv := device.NewMemDriver(k, "replacement", rigBlocks, nil)
				part := layout.NewPartition(drv, dead, 0, rigBlocks, false)
				repl := lfs.New(k, fmt.Sprintf("d%d", dead), part, lfs.Config{SegBlocks: 32})
				if err := r.arr.Rebuild(tk, repl); err != nil {
					errc <- fmt.Errorf("rebuild: %w", err)
				}
			})
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Fatal(err)
			}

			// Quiesced: all content correct, scrub clean, and the array
			// survives losing another member.
			r.do(t, func(tk sched.Task) error {
				if r.arr.Degraded() {
					t.Fatal("still degraded after rebuild")
				}
				for i := range inos {
					checkFile(t, tk, r.arr, inos[i], nblocks)
				}
				st, err := r.arr.Scrub(tk, false)
				if err != nil {
					return err
				}
				if st.Mismatches != 0 {
					t.Fatalf("scrub after rebuild under traffic: %+v", st)
				}
				if err := r.arr.KillMember((dead + 1) % rc.width); err != nil {
					return err
				}
				for i := range inos {
					checkFile(t, tk, r.arr, inos[i], nblocks)
				}
				return nil
			})
		})
	}
}

// deadRejects counts the requests its plan rejects because their disk
// is dead.
type deadRejects struct {
	*device.FaultPlan
	n atomic.Int64
}

func (d *deadRejects) Intercept(r *device.Request) device.Decision {
	dec := d.FaultPlan.Intercept(r)
	if errors.Is(dec.Err, device.ErrDiskDead) {
		d.n.Add(1)
	}
	return dec
}

// TestDeadDiskFaultLazyDetection wires a FaultPlan disk-death into a
// member's driver and checks the array notices mid-read — without a
// proactive KillMember — and degrades instead of failing the I/O.
func TestDeadDiskFaultLazyDetection(t *testing.T) {
	k := sched.NewReal(1)
	cfg := Config{Placement: PlacementMirrored, StripeBlocks: 2}
	plan := &deadRejects{FaultPlan: device.NewFaultPlan(device.FaultConfig{})}
	var drvs []device.Driver
	for i := 0; i < 2; i++ {
		drvs = append(drvs, device.NewMemDriver(k, fmt.Sprintf("mem%d", i), rigBlocks, nil))
	}
	drvs[0].SetInjector(plan)
	r := newRig(t, k, drvs, 2, cfg)
	const nblocks = 9
	r.do(t, func(tk sched.Task) error {
		r.arr.Format(tk)
		r.arr.Mount(tk)
		if _, err := r.arr.AllocInode(tk, core.TypeDirectory); err != nil {
			return err
		}
		ino, _ := writeFile(t, tk, r.arr, nblocks, core.BlockSize)
		if err := r.arr.Sync(tk); err != nil {
			return err
		}
		// The disk dies under the array's feet.
		plan.Kill(0)
		checkFile(t, tk, r.arr, ino, nblocks)
		if r.arr.DeadMember() != 0 {
			t.Fatalf("array did not notice the dead disk (dead=%d)", r.arr.DeadMember())
		}
		if r.arr.DegradedReads() == 0 {
			t.Fatal("no degraded reads counted")
		}
		if plan.n.Load() == 0 {
			t.Fatal("fault plan rejected nothing")
		}
		return nil
	})
}

// TestRedundantOnFFS runs the degraded-serve + rebuild cycle over FFS
// members — the other kernel of the layout library — exercising the
// bitmap-based RestoreInode and the in-place write path.
func TestRedundantOnFFS(t *testing.T) {
	for _, rc := range []struct {
		name  string
		width int
		cfg   Config
	}{
		{"mirrored-3", 3, Config{Placement: PlacementMirrored, StripeBlocks: 2}},
		{"parity-3", 3, Config{Placement: PlacementParity, StripeBlocks: 2}},
	} {
		t.Run(rc.name, func(t *testing.T) {
			k := sched.NewReal(1)
			fcfg := ffs.Config{BlocksPerGroup: 1024, InodesPerGroup: 64}
			var drvs []device.Driver
			subs := make([]layout.Layout, rc.width)
			for i := 0; i < rc.width; i++ {
				drvs = append(drvs, device.NewMemDriver(k, fmt.Sprintf("mem%d", i), rigBlocks, nil))
				part := layout.NewPartition(drvs[i], i, 0, rigBlocks, false)
				subs[i] = ffs.New(k, fmt.Sprintf("d%d", i), part, fcfg)
			}
			arr, err := New(k, "arr", subs, rc.cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			const nblocks = 15
			const dead = 1
			done := make(chan error, 1)
			k.Go("test", func(tk sched.Task) {
				done <- func() error {
					if err := arr.Format(tk); err != nil {
						return err
					}
					if err := arr.Mount(tk); err != nil {
						return err
					}
					if _, err := arr.AllocInode(tk, core.TypeDirectory); err != nil {
						return err
					}
					ino, _ := writeFile(t, tk, arr, nblocks, core.BlockSize)
					if err := arr.Sync(tk); err != nil {
						return err
					}
					if err := arr.KillMember(dead); err != nil {
						return err
					}
					checkFile(t, tk, arr, ino, nblocks)
					// Degraded overwrite, then rebuild onto a fresh FFS.
					if err := arr.WriteBlocks(tk, ino, []layout.BlockWrite{
						{Blk: 2, Data: pattern(2, core.BlockSize), Size: core.BlockSize},
					}); err != nil {
						return err
					}
					drv := device.NewMemDriver(k, "replacement", rigBlocks, nil)
					part := layout.NewPartition(drv, dead, 0, rigBlocks, false)
					repl := ffs.New(k, fmt.Sprintf("d%d", dead), part, fcfg)
					if err := arr.Rebuild(tk, repl); err != nil {
						return err
					}
					st, err := arr.Scrub(tk, false)
					if err != nil {
						return err
					}
					if st.Mismatches != 0 || st.Skipped != 0 {
						t.Fatalf("scrub after FFS rebuild: %+v", st)
					}
					// Lose a different member: the rebuilt FFS serves.
					if err := arr.KillMember((dead + 1) % rc.width); err != nil {
						return err
					}
					checkFile(t, tk, arr, ino, nblocks)
					return nil
				}()
			})
			if err := <-done; err != nil {
				t.Fatalf("task: %v", err)
			}
		})
	}
}

// TestParityWriteHoleClosed drives the degraded-parity write hole
// deterministically. It plans a guarded degraded RMW column update
// directly (the write planner's own per-member batches), then lands each torn
// subset of that fan on the media — nothing, data only, parity only,
// both — the four states a power cut mid-fan can leave. After a
// remount it checks that reconstruction of the dead member's chunk is
// provably garbage in the genuinely torn subsets, that replaying the
// battery-backed partial-parity record restores it in every subset,
// and that re-delivering the interrupted write through the repaired
// column leaves both cells correct.
func TestParityWriteHoleClosed(t *testing.T) {
	cfg := Config{Placement: PlacementParity, StripeBlocks: 2}
	const width = 3
	const nblocks = 8
	const dead = 1
	for _, sc := range []struct {
		name         string
		data, parity bool // which member writes reach the media
		torn         bool // reconstruction is wrong before the replay
	}{
		{"nothing-landed", false, false, false},
		{"data-only", true, false, true},
		{"parity-only", false, true, true},
		{"both-landed", true, true, false},
	} {
		t.Run(sc.name, func(t *testing.T) {
			k := sched.NewReal(1)
			r := newRig(t, k, nil, width, cfg)
			newdata := bytes.Repeat([]byte{0x5A}, core.BlockSize)
			var ino *layout.Inode
			var blk, peer core.BlockNo
			var records []ParityRecord
			r.do(t, func(tk sched.Task) error {
				r.arr.Format(tk)
				r.arr.Mount(tk)
				if _, err := r.arr.AllocInode(tk, core.TypeDirectory); err != nil {
					return err
				}
				ino, _ = writeFile(t, tk, r.arr, nblocks, core.BlockSize)
				if err := r.arr.Sync(tk); err != nil {
					return err
				}
				if err := r.arr.KillMember(dead); err != nil {
					return err
				}
				// Pick a column whose dead member holds an UNWRITTEN data
				// slot: writing the sibling slot then forces the RMW
				// strategy, whose parity_old is the only representation of
				// the dead chunk — the write-hole shape.
				af := r.arr.lookup(tk, ino.ID)
				pl := r.arr.pl
				found := false
				for b := 0; b < nblocks && !found; b++ {
					d := pl.dataCell(af.home, core.BlockNo(b))
					rest := pl.rest(af.home, d, nblocks, nil) // parity cell, then the peers
					if d.member == dead || rest[0].member == dead || len(rest) != 2 || rest[1].member != dead {
						continue
					}
					blk, peer, found = d.blk, rest[1].blk, true
				}
				if !found {
					t.Fatalf("no write-hole column for dead member %d", dead)
				}
				writes := []layout.BlockWrite{{Blk: blk, Data: newdata, Size: core.BlockSize}}
				chk, _ := pl.checkCell(af.home, blk)
				land := map[int]bool{pl.dataCell(af.home, blk).member: sc.data, chk.member: sc.parity}
				af.mu.Lock(tk)
				plan := batches.Get().(*batch)
				plan.t, plan.a, plan.af, plan.writes, plan.dead = tk, r.arr, af, writes, dead
				err := plan.plan()
				per := plan.per
				if err == nil && len(plan.guarded) != 1 {
					err = fmt.Errorf("%d guarded columns, want 1", len(plan.guarded))
				}
				// Land the subset straight on the member shares: the crash
				// caught the fan with only these writes on the media.
				for m, w := range per {
					if err != nil || len(w) == 0 || !land[m] {
						continue
					}
					err = r.arr.sub(m).WriteBlocks(tk, af.shadows[m], w)
				}
				af.mu.Unlock(tk)
				if err != nil {
					return err
				}
				records = r.arr.PendingParity()
				if len(records) != 1 {
					t.Fatalf("%d pending parity records, want 1", len(records))
				}
				return r.arr.Sync(tk)
			})

			// "Crash": fresh layouts over the same disks.
			r2 := newRig(t, k, r.drvs, width, cfg)
			r2.do(t, func(tk sched.Task) error {
				if err := r2.arr.KillMember(dead); err != nil {
					return err
				}
				if _, err := r2.arr.Recover(tk); err != nil {
					return err
				}
				got, err := r2.arr.GetInode(tk, ino.ID)
				if err != nil {
					return err
				}
				buf := make([]byte, core.BlockSize)
				if sc.torn {
					// Without the record the hole is real: the dead chunk,
					// reachable only through the torn column, is garbage —
					// and recovery's repairing scrub must skip the column
					// (it cannot read the dead member), so nothing else
					// ever fixes it.
					if err := readOne(tk, r2.arr, got, peer, buf); err != nil {
						return err
					}
					if bytes.Equal(buf, pattern(peer, core.BlockSize)) {
						t.Fatal("reconstruction sound before replay: subset did not tear the column")
					}
				}
				applied, err := r2.arr.ReplayParity(tk, records)
				if err != nil {
					return err
				}
				if applied != 1 {
					t.Fatalf("replay applied %d records, want 1", applied)
				}
				if err := readOne(tk, r2.arr, got, peer, buf); err != nil {
					return err
				}
				if !bytes.Equal(buf, pattern(peer, core.BlockSize)) {
					t.Fatal("dead chunk lost through the write hole")
				}
				// The survivor replay re-delivers the interrupted write
				// through the now-consistent column.
				if err := r2.arr.WriteBlocks(tk, got, []layout.BlockWrite{
					{Blk: blk, Data: newdata, Size: core.BlockSize},
				}); err != nil {
					return err
				}
				if err := readOne(tk, r2.arr, got, blk, buf); err != nil {
					return err
				}
				if !bytes.Equal(buf, newdata) {
					t.Fatal("re-delivered write lost")
				}
				if err := readOne(tk, r2.arr, got, peer, buf); err != nil {
					return err
				}
				if !bytes.Equal(buf, pattern(peer, core.BlockSize)) {
					t.Fatal("re-delivery corrupted the dead chunk")
				}
				return nil
			})
		})
	}
}

// TestDegradedTrafficHammer hammers a degraded array with concurrent
// writers and readers and no rebuild in sight — the steady state
// after a member death. The interlock under test is the degraded
// read/write paths sharing per-file state: reconstruction reads,
// parity RMW planning, and the partial-parity record set. Run with
// -race.
func TestDegradedTrafficHammer(t *testing.T) {
	for _, rc := range []struct {
		name  string
		width int
		cfg   Config
	}{
		{"mirrored-3", 3, Config{Placement: PlacementMirrored, StripeBlocks: 2}},
		{"parity-3", 3, Config{Placement: PlacementParity, StripeBlocks: 2}},
	} {
		t.Run(rc.name, func(t *testing.T) {
			k := sched.NewReal(4)
			r := newRig(t, k, nil, rc.width, rc.cfg)
			const files = 4
			const nblocks = 8
			const dead = 0
			inos := make([]*layout.Inode, files)
			r.do(t, func(tk sched.Task) error {
				r.arr.Format(tk)
				r.arr.Mount(tk)
				if _, err := r.arr.AllocInode(tk, core.TypeDirectory); err != nil {
					return err
				}
				for i := range inos {
					inos[i], _ = writeFile(t, tk, r.arr, nblocks, core.BlockSize)
				}
				if err := r.arr.Sync(tk); err != nil {
					return err
				}
				return r.arr.KillMember(dead)
			})

			// Writers rewrite the same pattern (content never changes, so
			// concurrent readers always have a consistent expectation);
			// single-block writes keep the parity planner on the RMW path.
			var wg sync.WaitGroup
			errc := make(chan error, files*2)
			for i := 0; i < files; i++ {
				i := i
				wg.Add(1)
				k.Go(fmt.Sprintf("writer%d", i), func(tk sched.Task) {
					defer wg.Done()
					for round := 0; round < 6; round++ {
						for b := 0; b < nblocks; b += 2 {
							if err := r.arr.WriteBlocks(tk, inos[i], []layout.BlockWrite{
								{Blk: core.BlockNo(b), Data: pattern(core.BlockNo(b), core.BlockSize), Size: core.BlockSize},
							}); err != nil {
								errc <- fmt.Errorf("writer %d: %w", i, err)
								return
							}
						}
					}
				})
				wg.Add(1)
				k.Go(fmt.Sprintf("reader%d", i), func(tk sched.Task) {
					defer wg.Done()
					buf := make([]byte, core.BlockSize)
					for round := 0; round < 6; round++ {
						for b := 0; b < nblocks; b++ {
							if err := readOne(tk, r.arr, inos[i], core.BlockNo(b), buf); err != nil {
								errc <- fmt.Errorf("reader %d: %w", i, err)
								return
							}
						}
					}
				})
			}
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Fatal(err)
			}

			// Quiesced: every block reads back, and a rebuild starting
			// from the hammered degraded state comes out scrub-clean.
			r.do(t, func(tk sched.Task) error {
				for i := range inos {
					checkFile(t, tk, r.arr, inos[i], nblocks)
				}
				if err := r.arr.Sync(tk); err != nil {
					return err
				}
				drv := device.NewMemDriver(k, "replacement", rigBlocks, nil)
				part := layout.NewPartition(drv, dead, 0, rigBlocks, false)
				repl := lfs.New(k, fmt.Sprintf("d%d", dead), part, lfs.Config{SegBlocks: 32})
				if err := r.arr.Rebuild(tk, repl); err != nil {
					return err
				}
				st, err := r.arr.Scrub(tk, false)
				if err != nil {
					return err
				}
				if st.Mismatches != 0 || st.Skipped != 0 {
					t.Fatalf("scrub after hammer+rebuild: %+v", st)
				}
				return nil
			})
		})
	}
}
