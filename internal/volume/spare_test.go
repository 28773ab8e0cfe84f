package volume

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/layout"
	"repro/internal/lfs"
	"repro/internal/sched"
)

// newSpareStack builds an idle replacement member stack over its own
// fresh driver, the way a supervisor pre-provisions one. The disk
// index is offset past the members so fault plans never confuse a
// spare with the member it replaces.
func newSpareStack(k sched.Kernel, width, slot int) (device.Driver, layout.Layout) {
	drv := device.NewMemDriver(k, fmt.Sprintf("spare%d", slot), rigBlocks, nil)
	part := layout.NewPartition(drv, width+slot, 0, rigBlocks, false)
	return drv, lfs.New(k, fmt.Sprintf("s%d", slot), part, lfs.Config{SegBlocks: 32})
}

// TestMaintenanceGateExclusion pins the CAS gate deterministically: a
// held gate refuses Rebuild, Scrub and PromoteSpare with ErrBusy, the
// refused promotion returns its spare to the pool and counts the
// refusal, and releasing the gate lets the promotion through.
func TestMaintenanceGateExclusion(t *testing.T) {
	k := sched.NewReal(1)
	r := newRig(t, k, nil, 3, Config{Placement: PlacementMirrored, StripeBlocks: 2})
	const dead = 1
	_, spare := newSpareStack(k, 3, 0)
	r.do(t, func(tk sched.Task) error {
		r.arr.Format(tk)
		r.arr.Mount(tk)
		if _, err := r.arr.AllocInode(tk, core.TypeDirectory); err != nil {
			return err
		}
		ino, _ := writeFile(t, tk, r.arr, 9, core.BlockSize)
		if err := r.arr.Sync(tk); err != nil {
			return err
		}
		r.arr.AttachSpare(spare)
		if err := r.arr.KillMember(dead); err != nil {
			return err
		}

		// Hold the gate as a concurrent scrub would.
		if !r.arr.maint.CompareAndSwap(maintIdle, maintScrub) {
			t.Fatal("gate not idle at rest")
		}
		if m := r.arr.Maintenance(); m != "scrub" {
			t.Fatalf("Maintenance() = %q with held gate, want scrub", m)
		}
		_, repl := newSpareStack(k, 3, 9)
		if err := r.arr.Rebuild(tk, repl); !errors.Is(err, ErrBusy) {
			t.Fatalf("rebuild through held gate: %v, want ErrBusy", err)
		}
		if _, err := r.arr.Scrub(tk, false); !errors.Is(err, ErrBusy) {
			t.Fatalf("scrub through held gate: %v, want ErrBusy", err)
		}
		if _, err := r.arr.PromoteSpare(tk); !errors.Is(err, ErrBusy) {
			t.Fatalf("promote through held gate: %v, want ErrBusy", err)
		}
		if n := r.arr.SpareCount(); n != 1 {
			t.Fatalf("refused promotion consumed the spare: %d idle, want 1", n)
		}
		if n := r.arr.SpareRefusals(); n != 1 {
			t.Fatalf("refusals = %d, want 1", n)
		}
		if o := r.arr.Origins()[dead]; o != -1 {
			t.Fatalf("refused promotion left origin %d, want -1", o)
		}
		r.arr.maint.Store(maintIdle)

		slot, err := r.arr.PromoteSpare(tk)
		if err != nil {
			return err
		}
		if slot != 0 {
			t.Fatalf("promoted slot %d, want 0", slot)
		}
		if r.arr.Degraded() {
			t.Fatal("array degraded after promotion")
		}
		if o := r.arr.Origins()[dead]; o != 0 {
			t.Fatalf("origin %d after promotion, want 0", o)
		}
		if n := r.arr.SparePromotions(); n != 1 {
			t.Fatalf("promotions = %d, want 1", n)
		}
		checkFile(t, tk, r.arr, ino, 9)
		return nil
	})
}

// TestMaintenanceRaceHammer races Rebuild, Scrub and KillMember under
// -race: every loser refuses with ErrBusy or the single-fault
// rejection (never corruption), a second kill only lands once the
// rebuild has fully completed, and the array ends healthy with the
// data intact.
func TestMaintenanceRaceHammer(t *testing.T) {
	k := sched.NewReal(4)
	r := newRig(t, k, nil, 3, Config{Placement: PlacementMirrored, StripeBlocks: 2})
	const dead = 1
	const other = 2
	const nblocks = 96
	var ino *layout.Inode
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
		return r.arr.KillMember(dead)
	})
	r.arr.rebuildDelay.Store(int64(200 * time.Microsecond))

	var wg sync.WaitGroup
	var mu sync.Mutex
	var fatal error
	fail := func(format string, args ...any) {
		mu.Lock()
		if fatal == nil {
			fatal = fmt.Errorf(format, args...)
		}
		mu.Unlock()
	}
	rebuilt := make(chan struct{})

	// The rebuilder: retries through scrubbers holding the gate.
	wg.Add(1)
	k.Go("rebuild", func(tk sched.Task) {
		defer wg.Done()
		defer close(rebuilt)
		_, repl := newSpareStack(k, 3, 0)
		for {
			err := r.arr.Rebuild(tk, repl)
			if err == nil {
				return
			}
			if !errors.Is(err, ErrBusy) {
				fail("rebuild: %v", err)
				return
			}
			tk.Sleep(100 * time.Microsecond)
		}
	})

	// Scrubbers: each pass either runs clean or refuses with ErrBusy.
	for i := 0; i < 3; i++ {
		wg.Add(1)
		k.Go(fmt.Sprintf("scrub%d", i), func(tk sched.Task) {
			defer wg.Done()
			for {
				select {
				case <-rebuilt:
					return
				default:
				}
				if _, err := r.arr.Scrub(tk, false); err != nil && !errors.Is(err, ErrBusy) {
					fail("scrub: %v", err)
					return
				}
				tk.Sleep(50 * time.Microsecond)
			}
		})
	}

	// The second-fault prober: killing another member must be refused
	// until the rebuild has fully completed (single-fault model).
	wg.Add(1)
	k.Go("killer", func(tk sched.Task) {
		defer wg.Done()
		for {
			if err := r.arr.KillMember(other); err == nil {
				if done, tot := r.arr.RebuildProgress(); tot == 0 || done != tot {
					fail("second kill landed mid-rebuild (%d/%d copied)", done, tot)
				}
				return
			} else if !strings.Contains(err.Error(), "dead") && !strings.Contains(err.Error(), "single") {
				fail("kill refused with unexpected error: %v", err)
				return
			}
			select {
			case <-rebuilt:
				return
			default:
				tk.Sleep(50 * time.Microsecond)
			}
		}
	})

	wg.Wait()
	if fatal != nil {
		t.Fatal(fatal)
	}

	r.do(t, func(tk sched.Task) error {
		// The prober may have legitimately killed `other` after the
		// rebuild completed; restore before the final verification.
		if r.arr.Degraded() {
			_, repl := newSpareStack(k, 3, 1)
			if err := r.arr.Rebuild(tk, repl); err != nil {
				return err
			}
		}
		st, err := r.arr.Scrub(tk, false)
		if err != nil {
			return err
		}
		if st.Mismatches != 0 || st.Skipped != 0 {
			t.Fatalf("final scrub: %+v", st)
		}
		checkFile(t, tk, r.arr, ino, nblocks)
		return nil
	})
}

// TestSparePoolLifecycle runs the pool dry: two sequential deaths
// promote the two attached spares (lineage recorded and persisted
// through the member labels), a third death finds the pool empty and
// is refused — with the array still serving degraded — and a manual
// rebuild restores health.
func TestSparePoolLifecycle(t *testing.T) {
	k := sched.NewReal(1)
	r := newRig(t, k, nil, 3, Config{Placement: PlacementMirrored, StripeBlocks: 2})
	const nblocks = 11
	spareDrvs := make([]device.Driver, 2)
	var replDrv device.Driver
	var ino *layout.Inode
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
		for j := 0; j < 2; j++ {
			drv, spare := newSpareStack(k, 3, j)
			spareDrvs[j] = drv
			if s := r.arr.AttachSpare(spare); s != j {
				t.Fatalf("spare %d attached at slot %d", j, s)
			}
		}

		// Death 1: member 1 → spare slot 0.
		if err := r.arr.KillMember(1); err != nil {
			return err
		}
		if slot, err := r.arr.PromoteSpare(tk); err != nil || slot != 0 {
			t.Fatalf("first promotion: slot %d, err %v", slot, err)
		}
		// Death 2: member 2 → spare slot 1.
		if err := r.arr.KillMember(2); err != nil {
			return err
		}
		if slot, err := r.arr.PromoteSpare(tk); err != nil || slot != 1 {
			t.Fatalf("second promotion: slot %d, err %v", slot, err)
		}
		if got := r.arr.Origins(); got[0] != -1 || got[1] != 0 || got[2] != 1 {
			t.Fatalf("origins %v, want [-1 0 1]", got)
		}
		if n := r.arr.SpareCount(); n != 0 {
			t.Fatalf("pool has %d idle after two promotions, want 0", n)
		}

		// Death 3: the pool is dry. The refusal is clean and counted,
		// and the array keeps serving degraded.
		if err := r.arr.KillMember(0); err != nil {
			return err
		}
		if _, err := r.arr.PromoteSpare(tk); !errors.Is(err, ErrNoSpare) {
			t.Fatalf("promotion from empty pool: %v, want ErrNoSpare", err)
		}
		if n := r.arr.SpareRefusals(); n != 1 {
			t.Fatalf("refusals = %d, want 1", n)
		}
		checkFile(t, tk, r.arr, ino, nblocks)

		// Manual repair closes the incident.
		var repl layout.Layout
		replDrv, repl = newSpareStack(k, 3, 7)
		if err := r.arr.Rebuild(tk, repl); err != nil {
			return err
		}
		if r.arr.Degraded() {
			t.Fatal("degraded after manual rebuild")
		}
		checkFile(t, tk, r.arr, ino, nblocks)
		return r.arr.Sync(tk)
	})

	// Lineage survives a remount: the member labels carry the origin.
	drvs2 := []device.Driver{replDrv, spareDrvs[0], spareDrvs[1]}
	r2 := newRig(t, k, drvs2, 3, Config{Placement: PlacementMirrored, StripeBlocks: 2})
	r2.do(t, func(tk sched.Task) error {
		if err := r2.arr.Mount(tk); err != nil {
			return err
		}
		if got := r2.arr.Origins(); got[0] != -1 || got[1] != 0 || got[2] != 1 {
			t.Fatalf("origins after remount %v, want [-1 0 1]", got)
		}
		got, err := r2.arr.GetInode(tk, ino.ID)
		if err != nil {
			return err
		}
		checkFile(t, tk, r2.arr, got, nblocks)
		return nil
	})
}
