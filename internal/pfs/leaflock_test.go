package pfs

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
)

// TestInodeLeafLockRace races everything an inode's leaf lock orders
// against one file on the real kernel: two size-growing writers (each
// regrows the file from empty once it reaches maxBlocks), StatByID,
// flush plus barrier (SyncAll), and on LFS the cleaner, which the
// writers' garbage keeps busy on a small log. On the parity array a
// scrubber takes the array's hole peeks at the members' shadows too.
// Run with -race.
func TestInodeLeafLockRace(t *testing.T) {
	const (
		maxBlocks = 24
		rounds    = 300 // writes per grower
	)
	for _, tc := range []struct {
		name, layout, placement string
		volumes                 int
		blocks                  int64 // per member
	}{
		{"lfs", "lfs", "", 1, 512}, // 32 LFS segments of 16 blocks
		{"ffs", "ffs", "", 1, 1024},
		{"lfs-parity-3", "lfs", "parity", 3, 512},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := Open(Config{
				Path:        filepath.Join(t.TempDir(), "leaf.img"),
				Blocks:      tc.blocks,
				SegBlocks:   16,
				CacheBlocks: 32,
				Layout:      tc.layout,
				Volumes:     tc.volumes,
				Placement:   tc.placement,
				Seed:        5,
			})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer srv.Close()
			var id core.FileID
			err = srv.Do(func(tk sched.Task) error {
				h, err := srv.Vol.Create(tk, "/f", core.TypeRegular)
				if err != nil {
					return err
				}
				id = h.ID()
				return srv.Vol.Close(tk, h)
			})
			if err != nil {
				t.Fatalf("create: %v", err)
			}
			cleaned := func() (n int64) {
				for _, ls := range logStats(srv.Array) {
					n += ls.SegsCleaned.Value()
				}
				return n
			}
			cleaned0 := cleaned()

			block := bytes.Repeat([]byte{0x2D}, core.BlockSize)
			var stop atomic.Bool
			var growers, others sync.WaitGroup
			errs := make(chan error, 8)
			loop := func(wg *sync.WaitGroup, name string, n int, fn func(tk sched.Task) error) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; (n == 0 || i < n) && !stop.Load(); i++ {
						if err := srv.Do(fn); err != nil {
							errs <- fmt.Errorf("%s: %w", name, err)
							stop.Store(true)
							return
						}
					}
				}()
			}
			grow := func(tk sched.Task) error {
				h, err := srv.Vol.OpenByID(tk, id)
				if err != nil {
					return err
				}
				defer srv.Vol.Close(tk, h)
				if size := srv.Vol.StatHandle(tk, h).Size; size < maxBlocks*core.BlockSize {
					return srv.Vol.WriteAt(tk, h, size, block, core.BlockSize)
				}
				return srv.Vol.Truncate(tk, h, 0)
			}
			for i := 0; i < 2; i++ {
				loop(&growers, fmt.Sprintf("grower %d", i), rounds, grow)
			}
			loop(&others, "stat", 0, func(tk sched.Task) error {
				a, err := srv.Vol.StatByID(tk, id)
				if err == nil && (a.Size < 0 || a.Size > maxBlocks*core.BlockSize || a.Size%core.BlockSize != 0) {
					err = fmt.Errorf("size %d: not a whole number of blocks up to %d", a.Size, maxBlocks)
				}
				return err
			})
			loop(&others, "sync", 0, func(tk sched.Task) error { return srv.FS.SyncAll(tk) })
			if tc.placement == "parity" {
				loop(&others, "scrub", 0, func(tk sched.Task) error {
					st, err := srv.Array.Scrub(tk, false)
					if err == nil && st.Mismatches != 0 {
						err = fmt.Errorf("%+v", st)
					}
					return err
				})
			}
			growers.Wait()
			stop.Store(true)
			others.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			t.Logf("segments cleaned: %d", cleaned()-cleaned0)
			if tc.layout == "lfs" && cleaned() == cleaned0 {
				t.Error("the LFS cleaner never ran: the race had no cleaner in it")
			}
		})
	}
}
