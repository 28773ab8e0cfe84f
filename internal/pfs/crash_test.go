package pfs

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cache"
)

// fastWriteDelay is the write-delay policy scaled to test time: the
// update daemon scans every 3ms and flushes blocks older than 10ms,
// so its loss bound is MaxAge+ScanInterval of real time.
func fastWriteDelay() cache.FlushConfig {
	return cache.FlushConfig{Name: "writedelay", ScanInterval: 3 * time.Millisecond,
		MaxAge: 10 * time.Millisecond, WholeFile: true}
}

// TestCrashMatrix is the crash-injection sweep: both layouts × one
// and two volumes × three write policies × clustering off and on,
// each cut at several device I/O ordinals. Every cell must recover
// to a mountable, fsck-clean state with no torn or foreign bytes
// visible; the persistent policies must additionally lose zero
// acknowledged writes. The clustered cells make multi-block FFS data
// writes — and so torn data runs — possible, and CutTearsWrite tears
// the final one.
func TestCrashMatrix(t *testing.T) {
	layouts := []string{"lfs", "ffs"}
	widths := []int{1, 2}
	policies := []cache.FlushConfig{
		cache.UPS(),
		cache.NVRAMWhole(12),
		fastWriteDelay(),
	}
	cuts := []int64{1, 7, 23}
	clusters := []int{0, 16}
	if testing.Short() {
		layouts = []string{"lfs"}
		widths = []int{1}
		cuts = []int64{7}
	}
	for _, lay := range layouts {
		for _, w := range widths {
			for _, fc := range policies {
				for _, cut := range cuts {
					for _, cl := range clusters {
						name := fmt.Sprintf("%s/%s/cl%d", lay, fc.Name, cl)
						res, err := runCrashPoint(crashSpec{
							Dir:              t.TempDir(),
							Layout:           lay,
							Volumes:          w,
							Flush:            fc,
							CutAfterIO:       cut,
							Seed:             cut,
							ClusterRunBlocks: cl,
							Namespace:        true,
						})
						if err != nil {
							t.Fatalf("%s vol=%d cut=%d: %v", name, w, cut, err)
						}
						if len(res.FsckErrors) != 0 {
							t.Fatalf("%s vol=%d cut=%d: fsck/policy errors: %v", name, w, cut, res.FsckErrors)
						}
						if fc.Persistent && res.LostAcked != 0 {
							t.Fatalf("%s vol=%d cut=%d: %d acknowledged writes lost under a persistent policy",
								name, w, cut, res.LostAcked)
						}
						if fc.Persistent && res.NamespaceLost != 0 {
							t.Fatalf("%s vol=%d cut=%d: %d acknowledged namespace ops lost under a persistent policy",
								name, w, cut, res.NamespaceLost)
						}
						if !fc.Persistent && res.Survivors != 0 {
							t.Fatalf("%s vol=%d cut=%d: volatile policy returned %d survivors",
								name, w, cut, res.Survivors)
						}
						if !fc.Persistent && res.Intents != 0 {
							t.Fatalf("%s vol=%d cut=%d: volatile policy returned %d surviving intents",
								name, w, cut, res.Intents)
						}
					}
				}
			}
		}
	}
}

// TestCrashTornClusteredRun aims the cut straight at the clustered
// write path: whole-file flushes of multi-block files under
// clustering produce multi-block data writes on both layouts, and
// CutTearsWrite persists only a prefix of the final one. Recovery
// (fsck + NVRAM replay) must still produce a clean volume with zero
// acknowledged loss. Sweeping many cut points makes it overwhelmingly
// likely several cells land mid-data-run.
func TestCrashTornClusteredRun(t *testing.T) {
	cuts := []int64{2, 3, 5, 9, 13, 17, 21, 29}
	if testing.Short() {
		cuts = []int64{5, 13}
	}
	for _, lay := range []string{"lfs", "ffs"} {
		for _, cut := range cuts {
			res, err := runCrashPoint(crashSpec{
				Dir:              t.TempDir(),
				Layout:           lay,
				Volumes:          1,
				Flush:            cache.NVRAMWhole(24), // whole-file: flush jobs carry runs
				CutAfterIO:       cut,
				Seed:             1000 + cut,
				ClusterRunBlocks: 8,
			})
			if err != nil {
				t.Fatalf("%s cut=%d: %v", lay, cut, err)
			}
			if len(res.FsckErrors) != 0 {
				t.Fatalf("%s cut=%d: fsck errors after torn clustered run: %v", lay, cut, res.FsckErrors)
			}
			if res.LostAcked != 0 {
				t.Fatalf("%s cut=%d: lost %d acknowledged writes", lay, cut, res.LostAcked)
			}
		}
	}
}

// TestCrashTornVectoredRun sweeps the torn clustered run over the
// zero-copy path: flush jobs issue one scatter-gather request per
// run, so the injected tear may end mid-iovec; recovery must still
// hold every acknowledged byte.
func TestCrashTornVectoredRun(t *testing.T) {
	cuts := []int64{3, 7, 11, 19}
	if testing.Short() {
		cuts = []int64{7}
	}
	for _, lay := range []string{"lfs", "ffs"} {
		for _, cut := range cuts {
			res, err := runCrashPoint(crashSpec{
				Dir:              t.TempDir(),
				Layout:           lay,
				Volumes:          1,
				Flush:            cache.NVRAMWhole(24),
				CutAfterIO:       cut,
				Seed:             3000 + cut,
				ClusterRunBlocks: 8,
			})
			if err != nil {
				t.Fatalf("%s cut=%d: %v", lay, cut, err)
			}
			if len(res.FsckErrors) != 0 {
				t.Fatalf("%s cut=%d: fsck errors after torn vectored run: %v", lay, cut, res.FsckErrors)
			}
			if res.LostAcked != 0 {
				t.Fatalf("%s cut=%d: lost %d acknowledged writes", lay, cut, res.LostAcked)
			}
		}
	}
}

// TestCrashQuiescentNVRAMReplay crashes after the workload drains
// (no forced cut): everything dirty sits in NVRAM and the entire
// working set must come back through replay.
func TestCrashQuiescentNVRAMReplay(t *testing.T) {
	res, err := runCrashPoint(crashSpec{
		Dir:     t.TempDir(),
		Layout:  "lfs",
		Volumes: 1,
		Flush:   cache.NVRAMWhole(24),
		Seed:    42,
		Rounds:  64,
	})
	if err != nil {
		t.Fatalf("runCrashPoint: %v", err)
	}
	if res.LostAcked != 0 {
		t.Fatalf("lost %d acknowledged writes", res.LostAcked)
	}
	if res.Survivors == 0 || res.Replayed != res.Survivors {
		t.Fatalf("replay incomplete: %d survivors, %d replayed", res.Survivors, res.Replayed)
	}
	if len(res.FsckErrors) != 0 {
		t.Fatalf("fsck errors: %v", res.FsckErrors)
	}
}

// TestCrashCreateWriteCut is the regression cell for the paper's last
// acknowledged-loss hole: files created and written just before the
// cut, under the policies that promise zero acknowledged loss. With
// the intent log on, every acknowledged create/rename/remove must be
// reflected after recovery — across both layouts and array widths.
func TestCrashCreateWriteCut(t *testing.T) {
	layouts := []string{"lfs", "ffs"}
	widths := []int{1, 2}
	cuts := []int64{3, 11, 19}
	if testing.Short() {
		widths = []int{1}
		cuts = []int64{11}
	}
	policies := []cache.FlushConfig{cache.UPS(), cache.NVRAMWhole(12)}
	for _, lay := range layouts {
		for _, w := range widths {
			for _, fc := range policies {
				for _, cut := range cuts {
					res, err := runCrashPoint(crashSpec{
						Dir:        t.TempDir(),
						Layout:     lay,
						Volumes:    w,
						Flush:      fc,
						CutAfterIO: cut,
						Seed:       7000 + cut,
						Namespace:  true,
					})
					if err != nil {
						t.Fatalf("%s/%s vol=%d cut=%d: %v", lay, fc.Name, w, cut, err)
					}
					if len(res.FsckErrors) != 0 {
						t.Fatalf("%s/%s vol=%d cut=%d: %v", lay, fc.Name, w, cut, res.FsckErrors)
					}
					if res.NamespaceLost != 0 {
						t.Fatalf("%s/%s vol=%d cut=%d: %d acknowledged namespace ops lost (intent log on)",
							lay, fc.Name, w, cut, res.NamespaceLost)
					}
					if res.LostAcked != 0 {
						t.Fatalf("%s/%s vol=%d cut=%d: %d acknowledged writes lost",
							lay, fc.Name, w, cut, res.LostAcked)
					}
				}
			}
		}
	}
}

// TestCrashNamespaceDropWithoutIntentLog pins the historical bug the
// intent log fixes: with the log disabled, the same create+write+cut
// cells must show acknowledged namespace loss (dropped survivors or
// missing files) at some cut point — otherwise the regression cell
// above is not actually exercising the hole.
func TestCrashNamespaceDropWithoutIntentLog(t *testing.T) {
	cuts := []int64{3, 7, 11, 19, 27}
	if testing.Short() {
		cuts = []int64{7, 19}
	}
	lost := 0
	for _, cut := range cuts {
		res, err := runCrashPoint(crashSpec{
			Dir:         t.TempDir(),
			Layout:      "lfs",
			Volumes:     1,
			Flush:       cache.NVRAMWhole(12),
			CutAfterIO:  cut,
			Seed:        8000 + cut,
			Namespace:   true,
			NoIntentLog: true,
		})
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		lost += res.NamespaceLost + res.Dropped
	}
	if lost == 0 {
		t.Fatalf("expected the checkpoint-only discipline to drop acknowledged namespace state at some cut point")
	}
}

// TestCrashDoubleCut cuts the power a second time during recovery
// itself — at a sweep of recovery I/O ordinals — then recovers from
// the merged crash state. Intent replay re-records what it applies,
// so the double cut must converge to the same fsck-clean, zero-loss
// state a single recovery reaches.
func TestCrashDoubleCut(t *testing.T) {
	recuts := []int64{1, 2, 4, 8, 16, 32}
	if testing.Short() {
		recuts = []int64{2, 8}
	}
	for _, lay := range []string{"lfs", "ffs"} {
		for _, rc := range recuts {
			res, err := runCrashPoint(crashSpec{
				Dir:        t.TempDir(),
				Layout:     lay,
				Volumes:    1,
				Flush:      cache.NVRAMWhole(12),
				CutAfterIO: 9,
				Seed:       9000 + rc,
				Namespace:  true,
				RecoverCut: rc,
			})
			if err != nil {
				t.Fatalf("%s recut=%d: %v", lay, rc, err)
			}
			if len(res.FsckErrors) != 0 {
				t.Fatalf("%s recut=%d: fsck errors after double cut: %v", lay, rc, res.FsckErrors)
			}
			if res.NamespaceLost != 0 {
				t.Fatalf("%s recut=%d: %d acknowledged namespace ops lost after double cut",
					lay, rc, res.NamespaceLost)
			}
			if res.LostAcked != 0 {
				t.Fatalf("%s recut=%d: %d acknowledged writes lost after double cut",
					lay, rc, res.LostAcked)
			}
		}
	}
}

// TestCrashMemberDeath is the disk-death axis of the crash matrix:
// under a redundant placement, kill any single member mid-workload —
// the traffic keeps running degraded — and then cut the power. After
// recovery (which reopens with the member declared dead, so every
// verification read goes through the mirror copy or the parity
// column) zero acknowledged data may be missing. For parity arrays
// this is precisely the RAID-5 write-hole cell: the battery-backed
// partial-parity records must carry the in-flight degraded columns
// across the cut.
func TestCrashMemberDeath(t *testing.T) {
	layouts := []string{"lfs", "ffs"}
	placements := []string{"mirrored", "parity"}
	members := []int{0, 1, 2}
	kills := []int64{0, 6, 17}
	if testing.Short() {
		layouts = []string{"lfs"}
		members = []int{1}
		kills = []int64{6}
	}
	parityRecords := 0
	for _, lay := range layouts {
		for _, pl := range placements {
			for _, m := range members {
				for _, kio := range kills {
					res, err := runCrashPoint(crashSpec{
						Dir:     t.TempDir(),
						Layout:  lay,
						Volumes: 3,
						// Chunk width 2: the 8-block files span several
						// parity columns, so partially-dirty flushes take
						// the small-write RMW path — degraded, that is
						// the write-hole shape the parity log guards.
						StripeBlocks: 2,
						Placement:    pl,
						Flush:        cache.NVRAMWhole(12),
						Kill:         true,
						KillMember:   m,
						KillAfterIO:  kio,
						CutAfterIO:   40,
						Seed:         2000 + int64(m)*100 + kio,
					})
					name := fmt.Sprintf("%s/%s m=%d killio=%d", lay, pl, m, kio)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if res.DeadMember != m {
						t.Fatalf("%s: dead member %d after recovery", name, res.DeadMember)
					}
					if len(res.FsckErrors) != 0 {
						t.Fatalf("%s: fsck/policy errors: %v", name, res.FsckErrors)
					}
					if res.LostAcked != 0 {
						t.Fatalf("%s: lost %d acknowledged writes reading through redundancy",
							name, res.LostAcked)
					}
					parityRecords += res.ParityRecords
					if res.ParityApplied > res.ParityRecords {
						t.Fatalf("%s: applied %d of %d parity records", name, res.ParityApplied, res.ParityRecords)
					}
				}
			}
		}
	}
	t.Logf("partial-parity records carried across the sweep: %d", parityRecords)
	if !testing.Short() && parityRecords == 0 {
		t.Fatalf("the sweep no longer reaches the degraded RMW path: no partial-parity record was ever pending at a cut, so the write-hole cell is not being exercised")
	}
}

// TestCrashMemberDeathWriteDelay pins the paper's loss bound on the
// degraded array: write-delay may lose acknowledged writes at the
// cut, but never older than the update daemon's age limit — member
// loss must not widen the window.
func TestCrashMemberDeathWriteDelay(t *testing.T) {
	fc := fastWriteDelay()
	for _, pl := range []string{"mirrored", "parity"} {
		res, err := runCrashPoint(crashSpec{
			Dir:          t.TempDir(),
			Layout:       "lfs",
			Volumes:      3,
			StripeBlocks: 2,
			Placement:    pl,
			Flush:        fc,
			Kill:         true,
			KillMember:   1,
			KillAfterIO:  4,
			CutAfterIO:   30,
			Seed:         2600,
		})
		if err != nil {
			t.Fatalf("%s: %v", pl, err)
		}
		if len(res.FsckErrors) != 0 {
			t.Fatalf("%s: fsck errors: %v", pl, res.FsckErrors)
		}
		// The bound is MaxAge + ScanInterval of real time; the slack
		// absorbs scheduler jitter on a loaded CI machine.
		if bound := fc.MaxAge + fc.ScanInterval + 2*time.Second; res.LossWindow > bound {
			t.Fatalf("%s: loss window %v exceeds the write-delay bound %v", pl, res.LossWindow, bound)
		}
	}
}

// TestCrashDuringRebuild sweeps the power cut across the online
// rebuild itself: at every cut ordinal the recovery — degraded
// remount, replay, a fresh rebuild — must converge to a healthy,
// fsck-clean, scrub-clean array holding exactly the acknowledged
// versions. Cut 0 is the control run (no crash); large ordinals let
// the rebuild outrun the cut, exercising the heal-then-crash tail.
func TestCrashDuringRebuild(t *testing.T) {
	layouts := []string{"lfs", "ffs"}
	cuts := []int64{0, 1, 3, 9, 33, 90}
	if testing.Short() {
		layouts = []string{"lfs"}
		cuts = []int64{0, 3, 33}
	}
	for _, lay := range layouts {
		for _, pl := range []string{"mirrored", "parity"} {
			for _, cut := range cuts {
				res, err := runRepairCrash(repairSpec{
					Dir:          t.TempDir(),
					Layout:       lay,
					StripeBlocks: 2,
					Placement:    pl,
					KillMember:   1,
					CutAfterIO:   cut,
					Seed:         3000 + cut,
				})
				name := fmt.Sprintf("%s/%s cut=%d", lay, pl, cut)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if cut == 0 && (res.Interrupted || res.RebuildErr != "") {
					t.Fatalf("%s: control run crashed: interrupted=%v err=%q", name, res.Interrupted, res.RebuildErr)
				}
				if len(res.FsckErrors) != 0 {
					t.Fatalf("%s: did not converge: %v", name, res.FsckErrors)
				}
				if res.Scrub.Mismatches != 0 || res.Scrub.Skipped != 0 {
					t.Fatalf("%s: scrub after convergence: %+v", name, res.Scrub)
				}
			}
		}
	}
}

// TestCrashAutoRebuild sweeps the power cut across the SUPERVISED
// repair: the server's own self-heal — isolate, promote the hot
// spare, rebuild onto it, scrub-verify — interrupted at arbitrary
// device I/Os. Whatever the cut leaves (a half-rebuilt spare still in
// the pool, an adopted image mid-copy), recovery must reopen degraded
// and converge to a healthy, fsck-clean, scrub-clean array holding
// exactly the acknowledged versions. Cut 0 is the control run: the
// heal must complete and the healed images must reopen clean.
func TestCrashAutoRebuild(t *testing.T) {
	cuts := []int64{0, 1, 4, 12, 40, 120}
	placements := []string{"mirrored", "parity"}
	if testing.Short() {
		cuts = []int64{0, 4, 40}
		placements = []string{"mirrored"}
	}
	for _, pl := range placements {
		for _, cut := range cuts {
			res, err := runRepairCrash(repairSpec{
				Dir:          t.TempDir(),
				Layout:       "lfs",
				StripeBlocks: 2,
				Placement:    pl,
				KillMember:   1,
				CutAfterIO:   cut,
				Seed:         4000 + cut,
				Supervised:   true,
			})
			name := fmt.Sprintf("%s cut=%d", pl, cut)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if cut == 0 {
				if res.Interrupted || res.Heal.Err != "" {
					t.Fatalf("%s: control run crashed: interrupted=%v heal=%+v", name, res.Interrupted, res.Heal)
				}
				if res.Heal.Spare != 0 || res.Heal.Member != 1 {
					t.Fatalf("%s: control heal event %+v, want member 1 onto spare 0", name, res.Heal)
				}
			}
			if res.Interrupted && res.Heal.Err == "" && res.Heal.Spare != 0 {
				t.Fatalf("%s: cut tripped but the heal neither completed nor failed: %+v", name, res.Heal)
			}
			if len(res.FsckErrors) != 0 {
				t.Fatalf("%s: did not converge: %v", name, res.FsckErrors)
			}
			if res.Scrub.Mismatches != 0 || res.Scrub.Skipped != 0 {
				t.Fatalf("%s: scrub after convergence: %+v", name, res.Scrub)
			}
		}
	}
}

// TestCrashTornMetadataWrite aims the cut at FFS's synchronous
// metadata writes: the cut request tears its single block to a random
// byte prefix, splicing half an inode-table or bitmap update onto
// stale bytes. The per-record checksums must catch the tear at
// recovery and repair must rebuild — still with zero acknowledged
// loss under NVRAM, since the intent log re-creates what the torn
// record lost.
func TestCrashTornMetadataWrite(t *testing.T) {
	cuts := []int64{2, 5, 9, 14, 21}
	if testing.Short() {
		cuts = []int64{5, 14}
	}
	for _, cut := range cuts {
		res, err := runCrashPoint(crashSpec{
			Dir:          t.TempDir(),
			Layout:       "ffs",
			Volumes:      1,
			Flush:        cache.NVRAMWhole(12),
			CutAfterIO:   cut,
			Seed:         5000 + cut,
			Namespace:    true,
			TearSubBlock: true,
		})
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if len(res.FsckErrors) != 0 {
			t.Fatalf("cut=%d: fsck errors after torn metadata write: %v", cut, res.FsckErrors)
		}
		if res.NamespaceLost != 0 {
			t.Fatalf("cut=%d: %d acknowledged namespace ops lost", cut, res.NamespaceLost)
		}
		if res.LostAcked != 0 {
			t.Fatalf("cut=%d: %d acknowledged writes lost", cut, res.LostAcked)
		}
	}
}
