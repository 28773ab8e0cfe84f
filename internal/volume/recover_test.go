package volume

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/layout"
	"repro/internal/lfs"
	"repro/internal/sched"
)

// kernels enumerates the two schedulers every recovery invariant must
// hold under: the deterministic virtual kernel and the real one.
func kernels() map[string]func() sched.Kernel {
	return map[string]func() sched.Kernel{
		"virtual": func() sched.Kernel { return sched.NewVirtual(1) },
		"real":    func() sched.Kernel { return sched.NewReal(1) },
	}
}

// runK executes body as a kernel task and drives the kernel to
// completion, whichever kind it is.
func runK(t *testing.T, k sched.Kernel, body func(tk sched.Task)) {
	t.Helper()
	if vk, ok := k.(*sched.VKernel); ok {
		vk.Go("test", func(tk sched.Task) {
			body(tk)
			vk.Stop()
		})
		if err := vk.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return
	}
	done := make(chan struct{})
	k.Go("test", func(tk sched.Task) {
		defer close(done)
		body(tk)
	})
	<-done
}

// buildArray assembles a fresh array of LFS subs over drvs (creating
// mem drivers when nil).
func buildArray(t *testing.T, k sched.Kernel, drvs []device.Driver, width int, cfg Config) ([]device.Driver, *Array) {
	t.Helper()
	if drvs == nil {
		for i := 0; i < width; i++ {
			drvs = append(drvs, device.NewMemDriver(k, fmt.Sprintf("mem%d", i), rigBlocks, nil))
		}
	}
	subs := make([]layout.Layout, width)
	for i := 0; i < width; i++ {
		part := layout.NewPartition(drvs[i], i, 0, rigBlocks, false)
		subs[i] = lfs.New(k, fmt.Sprintf("d%d", i), part, lfs.Config{SegBlocks: 32})
	}
	arr, err := New(k, "arr", subs, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return drvs, arr
}

// TestGeometryMismatchEveryAxisBothKernels formats a 3-wide striped
// array and checks that every mismatch axis — width, placement,
// stripe chunk, and a shuffled member order — is rejected at mount,
// under both kernels.
func TestGeometryMismatchEveryAxisBothKernels(t *testing.T) {
	good := Config{Placement: PlacementStriped, StripeBlocks: 4}
	for kname, mk := range kernels() {
		t.Run(kname, func(t *testing.T) {
			k := mk()
			drvs, arr := buildArray(t, k, nil, 3, good)
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

				cases := []struct {
					name  string
					drvs  []device.Driver
					width int
					cfg   Config
					want  string
				}{
					{"width", drvs[:2], 2, good, "2"},
					{"placement", drvs, 3, Config{Placement: PlacementAffinity}, "placement"},
					{"stripe", drvs, 3, Config{Placement: PlacementStriped, StripeBlocks: 8}, "stripe"},
					{"member-order", []device.Driver{drvs[1], drvs[0], drvs[2]}, 3, good, "member"},
				}
				for _, tc := range cases {
					_, bad := buildArray(t, k, tc.drvs, tc.width, tc.cfg)
					got := bad.Mount(tk)
					if got == nil {
						t.Fatalf("%s mismatch accepted", tc.name)
					}
					if !strings.Contains(got.Error(), tc.want) {
						t.Fatalf("%s mismatch error %q does not name the axis (%q)", tc.name, got, tc.want)
					}
					if !errors.Is(got, ErrGeometry) {
						t.Fatalf("%s error %q is not ErrGeometry", tc.name, got)
					}
				}

				// The matching geometry still mounts.
				_, ok := buildArray(t, k, drvs, 3, good)
				if err := ok.Mount(tk); err != nil {
					t.Fatalf("matching geometry rejected: %v", err)
				}
			})
		})
	}
}

// TestEmptyLabelAdoptedAndRewritten covers the crash that beats the
// first label write: the reserved inodes are durable but empty. The
// next mount must adopt them and the next sync must label the array,
// so geometry validation is not silently lost forever.
func TestEmptyLabelAdoptedAndRewritten(t *testing.T) {
	k := sched.NewReal(1)
	cfg := Config{Placement: PlacementStriped, StripeBlocks: 4}
	drvs, arr := buildArray(t, k, nil, 2, cfg)
	runK(t, k, func(tk sched.Task) {
		arr.Format(tk)
		arr.Mount(tk)
		if _, err := arr.AllocInode(tk, core.TypeDirectory); err != nil {
			t.Fatalf("alloc root: %v", err)
		}
		// Make the inodes durable without Array.Sync (which would
		// write the labels): sync the members directly.
		for _, sub := range arr.Subs() {
			if err := sub.Sync(tk); err != nil {
				t.Fatalf("sub sync: %v", err)
			}
		}
	})

	_, arr2 := buildArray(t, k, drvs, 2, cfg)
	runK(t, k, func(tk sched.Task) {
		if err := arr2.Mount(tk); err != nil {
			t.Fatalf("mount with empty labels: %v", err)
		}
		if err := arr2.Sync(tk); err != nil {
			t.Fatalf("sync: %v", err)
		}
	})

	// The array is labeled now: the wrong geometry must be rejected.
	_, bad := buildArray(t, k, drvs, 2, Config{Placement: PlacementAffinity})
	runK(t, k, func(tk sched.Task) {
		if err := bad.Mount(tk); err == nil {
			t.Fatal("wrong placement accepted after label rewrite")
		}
	})
}

// TestArrayRecoverRollsBackHalfAllocation breaks lockstep the way a
// crash inside an allocation fan-out does — the inode durable on one
// member, absent on the other — and checks Recover rolls it back and
// re-syncs the cursors so allocation resumes cleanly.
func TestArrayRecoverRollsBackHalfAllocation(t *testing.T) {
	k := sched.NewReal(1)
	cfg := Config{Placement: PlacementStriped, StripeBlocks: 2}
	drvs, arr := buildArray(t, k, nil, 2, cfg)
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
		ino, err := arr.AllocInode(tk, core.TypeRegular)
		if err != nil {
			t.Fatalf("alloc: %v", err)
		}
		if err := writeStripes(tk, arr, ino, 4); err != nil {
			t.Fatalf("write: %v", err)
		}
		if err := arr.Sync(tk); err != nil {
			t.Fatalf("Sync: %v", err)
		}
		// Crash mid-fan-out: the next allocation reaches member 0
		// only and becomes durable there.
		if _, err := arr.Subs()[0].AllocInode(tk, core.TypeRegular); err != nil {
			t.Fatalf("sub alloc: %v", err)
		}
		if err := arr.Subs()[0].Sync(tk); err != nil {
			t.Fatalf("sub sync: %v", err)
		}
	})

	_, arr2 := buildArray(t, k, drvs, 2, cfg)
	runK(t, k, func(tk sched.Task) {
		st, err := arr2.Recover(tk)
		if err != nil {
			t.Fatalf("Recover: %v", err)
		}
		found := false
		for _, r := range st.Repairs {
			if strings.Contains(r, "rolled back") || strings.Contains(r, "cursors") {
				found = true
			}
		}
		if !found {
			t.Fatalf("no lockstep repair reported: %v", st.Repairs)
		}
		// Lockstep must hold again: array-level allocation succeeds
		// (a broken lockstep fails loudly inside alloc).
		for i := 0; i < 4; i++ {
			if _, err := arr2.AllocInode(tk, core.TypeRegular); err != nil {
				t.Fatalf("alloc after recovery: %v", err)
			}
		}
	})
}

// writeStripes writes nblocks patterned blocks through the array.
func writeStripes(tk sched.Task, arr *Array, ino *layout.Inode, nblocks int) error {
	var ws []layout.BlockWrite
	for b := 0; b < nblocks; b++ {
		ws = append(ws, layout.BlockWrite{Blk: core.BlockNo(b), Data: pattern(core.BlockNo(b), core.BlockSize), Size: core.BlockSize})
	}
	if err := arr.WriteBlocks(tk, ino, ws); err != nil {
		return err
	}
	ino.Size = int64(nblocks) * core.BlockSize
	return arr.UpdateInode(tk, ino)
}

// TestArrayRecoverRepairsShadowSizes creates the crash signature of
// a striped write that reached one member but whose home-size mirror
// never became durable, and checks Recover trims the orphaned
// stripes back to the global size.
func TestArrayRecoverRepairsShadowSizes(t *testing.T) {
	k := sched.NewReal(1)
	cfg := Config{Placement: PlacementStriped, StripeBlocks: 1}
	drvs, arr := buildArray(t, k, nil, 2, cfg)
	var id core.FileID
	runK(t, k, func(tk sched.Task) {
		arr.Format(tk)
		arr.Mount(tk)
		arr.AllocInode(tk, core.TypeDirectory)
		ino, err := arr.AllocInode(tk, core.TypeRegular)
		if err != nil {
			t.Fatalf("alloc: %v", err)
		}
		id = ino.ID
		if err := writeStripes(tk, arr, ino, 4); err != nil {
			t.Fatalf("write: %v", err)
		}
		if err := arr.Sync(tk); err != nil {
			t.Fatalf("Sync: %v", err)
		}
		// Post-sync growth that reaches only the non-home member
		// durably: extend the file, then sync just that member.
		other := 1 - arr.home(id)
		if err := writeStripes(tk, arr, ino, 8); err != nil {
			t.Fatalf("grow: %v", err)
		}
		if err := arr.Subs()[other].Sync(tk); err != nil {
			t.Fatalf("partial sync: %v", err)
		}
	})

	_, arr2 := buildArray(t, k, drvs, 2, cfg)
	runK(t, k, func(tk sched.Task) {
		if _, err := arr2.Recover(tk); err != nil {
			t.Fatalf("Recover: %v", err)
		}
		ino, err := arr2.GetInode(tk, id)
		if err != nil {
			t.Fatalf("GetInode: %v", err)
		}
		if ino.Size != 4*core.BlockSize {
			t.Fatalf("global size %d after recovery, want the durable 4 blocks", ino.Size)
		}
		// Every covered block reads back the synced pattern.
		buf := make([]byte, core.BlockSize)
		for b := 0; b < 4; b++ {
			if err := readOne(tk, arr2, ino, core.BlockNo(b), buf); err != nil {
				t.Fatalf("read %d: %v", b, err)
			}
		}
		// The shadow invariant holds for a fresh write afterwards.
		if err := writeStripes(tk, arr2, ino, 6); err != nil {
			t.Fatalf("write after recovery: %v", err)
		}
		if err := arr2.Sync(tk); err != nil {
			t.Fatalf("sync after recovery: %v", err)
		}
	})
}
