package volume

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/layout"
	"repro/internal/lfs"
	"repro/internal/sched"
)

// TestRebuildWhileCleaning runs Rebuild and then Scrub passes while
// writers keep overwriting, on members whose logs are small enough
// that the LFS cleaner runs during both. The cleaner moves block
// addresses in the very inodes the array's shadows alias; rebuild's
// and scrub's hole checks and rebuild's carrier-metadata copy must
// read them under the inode's leaf lock, as the cleaner writes them.
// Run with -race.
func TestRebuildWhileCleaning(t *testing.T) {
	for _, rc := range []struct {
		name string
		cfg  Config
	}{
		{"mirrored-3", Config{Placement: PlacementMirrored, StripeBlocks: 2}},
		{"parity-3", Config{Placement: PlacementParity, StripeBlocks: 2}},
	} {
		t.Run(rc.name, func(t *testing.T) {
			const (
				width   = 3
				dead    = 1
				files   = 8
				nblocks = 16
				blocks  = 512 // per member: 32 segments of 16 blocks
			)
			k := sched.NewReal(4)
			var logs []*lfs.LFS
			var drvs []device.Driver
			defer func() {
				for _, drv := range drvs {
					drv.Close()
				}
				k.Stop()
			}()
			member := func(name string, i int) *lfs.LFS {
				drv := device.NewMemDriver(k, name, blocks, nil)
				drvs = append(drvs, drv)
				l := lfs.New(k, name, layout.NewPartition(drv, i, 0, blocks, false), lfs.Config{SegBlocks: 16})
				logs = append(logs, l)
				return l
			}
			subs := make([]layout.Layout, width)
			for i := range subs {
				subs[i] = member(fmt.Sprintf("d%d", i), i)
			}
			arr, err := New(k, "arr", subs, rc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			r := &rig{k: k, arr: arr}
			cleaned := func() (n int64) {
				for _, l := range logs {
					n += l.LogStats().SegsCleaned.Value()
				}
				return n
			}
			inos := make([]*layout.Inode, files)
			r.do(t, func(tk sched.Task) error {
				arr.Format(tk)
				arr.Mount(tk)
				if _, err := arr.AllocInode(tk, core.TypeDirectory); err != nil {
					return err
				}
				for i := range inos {
					inos[i], _ = writeFile(t, tk, arr, nblocks, core.BlockSize)
				}
				if err := arr.Sync(tk); err != nil {
					return err
				}
				return arr.KillMember(dead)
			})

			// Overwriters rewrite the same patterns (reads always have a
			// consistent expectation) until the maintenance passes end.
			var stop atomic.Bool
			var wg sync.WaitGroup
			errc := make(chan error, 5)
			for i := 0; i < 4; i++ {
				wg.Add(1)
				k.Go(fmt.Sprintf("writer%d", i), func(tk sched.Task) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(i)))
					for !stop.Load() {
						b := core.BlockNo(rng.Intn(nblocks))
						if err := arr.WriteBlocks(tk, inos[rng.Intn(files)], []layout.BlockWrite{
							{Blk: b, Data: pattern(b, core.BlockSize), Size: core.BlockSize},
						}); err != nil {
							errc <- fmt.Errorf("writer %d: %w", i, err)
							return
						}
					}
				})
			}
			var duringRebuild, duringScrub int64
			wg.Add(1)
			k.Go("maintenance", func(tk sched.Task) {
				defer wg.Done()
				defer stop.Store(true)
				// Let the overwrites fill the logs to the cleaning
				// threshold, then rebuild through cleaner passes.
				c := cleaned()
				for i := 0; cleaned() == c; i++ {
					if i == 20000 {
						errc <- fmt.Errorf("the cleaner never ran under %d overwriters", 4)
						return
					}
					tk.Sleep(100 * time.Microsecond)
				}
				c = cleaned()
				arr.rebuildDelay.Store(int64(500 * time.Microsecond)) // a copy pass long enough to clean through
				if err := arr.Rebuild(tk, member("repl", dead)); err != nil {
					errc <- fmt.Errorf("rebuild: %w", err)
					return
				}
				duringRebuild, c = cleaned()-c, cleaned()
				// Enough passes that a scrub hole check lands right after a
				// cleaner move of the same block (the parent tree's race),
				// and on until the cleaner has run under them: on a loaded
				// machine 30 passes can end before the writers fill a log.
				for pass := 0; pass < 30 || cleaned() == c; pass++ {
					if pass == 20000 {
						errc <- fmt.Errorf("the cleaner never ran under %d scrub passes", pass)
						return
					}
					if st, err := arr.Scrub(tk, false); err != nil || st.Mismatches != 0 {
						errc <- fmt.Errorf("scrub pass %d: %+v, %v", pass, st, err)
						return
					}
				}
				duringScrub = cleaned() - c
			})
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Fatal(err)
			}
			if duringRebuild == 0 || duringScrub == 0 {
				t.Fatalf("segments cleaned during rebuild %d, during scrub %d: want both > 0", duringRebuild, duringScrub)
			}

			r.do(t, func(tk sched.Task) error {
				for _, ino := range inos {
					checkFile(t, tk, arr, ino, nblocks)
				}
				st, err := arr.Scrub(tk, false)
				if err == nil && (st.Mismatches != 0 || st.Skipped != 0) {
					err = fmt.Errorf("final scrub: %+v", st)
				}
				return err
			})
		})
	}
}
