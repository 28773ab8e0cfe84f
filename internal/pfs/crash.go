// Crash-injection harness: run a journaled write workload against a
// live PFS, cut the power at an arbitrary device I/O through the
// fault seam, then recover — remount through roll-forward/repair,
// replay the NVRAM survivors — fsck the result, and verify every
// surviving byte against the journal. This is the machinery behind
// the paper's reliability claim: under the UPS/NVRAM policies an
// acknowledged write must never be lost; under write-delay the loss
// is real and bounded by the update daemon's age limit.
package pfs

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/ffs"
	"repro/internal/fsys"
	"repro/internal/layout"
	"repro/internal/lfs"
	"repro/internal/sched"
	"repro/internal/volume"
)

// CrashSpec configures one crash-recovery exercise.
type CrashSpec struct {
	// Dir is a scratch directory for the image set.
	Dir string
	// Layout is "lfs" (default) or "ffs"; Volumes the array width.
	Layout  string
	Volumes int
	// Placement selects the array placement ("affinity" default,
	// "striped", "mirrored", "parity"). The redundant placements
	// enable the member-death axis below.
	Placement string
	// StripeBlocks is the redundant/striped chunk width. The default
	// (8) makes each 8-block crash file a single chunk; 2 gives the
	// files multiple parity columns with partially-written updates —
	// the RAID-5 small-write (and, degraded, write-hole) shape.
	StripeBlocks int
	// Kill arms the disk-death axis: member KillMember dies at the
	// KillAfterIO-th device I/O of the crash window (0 = before the
	// first), and the workload keeps running — degraded — into the
	// power cut. Requires a redundant Placement. Verification then
	// reopens the image set with the member declared dead, so every
	// surviving byte is read back through the redundancy.
	Kill        bool
	KillMember  int
	KillAfterIO int64
	// Flush is the write policy under test.
	Flush cache.FlushConfig
	// CutAfterIO trips the power cut at the Nth device I/O issued
	// after the durable baseline (0: cut when the workload ends).
	CutAfterIO int64
	// Files and Rounds size the workload (defaults 6 and 200).
	Files, Rounds int
	// Seed drives the server's policy randomness.
	Seed int64
	// ClusterRunBlocks is the clustered-transfer cap under test
	// (0 = off: the classic one-block-per-request stack; > 1 makes
	// multi-block data writes — and so torn data runs — possible).
	ClusterRunBlocks int
	// Namespace interleaves journaled namespace operations (create+
	// write, rename, remove) with the data workload — the
	// create+write+crash cell. Verification then also checks that no
	// acknowledged namespace operation is lost or resurrected.
	Namespace bool
	// NoIntentLog disables the server's metadata intent log, exposing
	// the historical drop-acknowledged-creates behavior for A/B runs.
	NoIntentLog bool
	// RecoverCut, when positive, cuts the power a second time at the
	// Nth device I/O of the recovery itself (remount, intent replay,
	// survivor write-back), then recovers again from the merged crash
	// state — the crash-under-recovery sweep. Replay must be
	// idempotent for this to converge.
	RecoverCut int64
	// TearSubBlock makes the cut tear single-block writes to a random
	// byte prefix — the sector-granular tear through an inode table or
	// allocation bitmap that the per-record checksums must catch.
	TearSubBlock bool
}

// CrashResult is what one exercise observed.
type CrashResult struct {
	// CutIO is the device I/O ordinal the cut actually tripped at.
	CutIO int64
	// Acked counts block writes acknowledged before the cut; Issued
	// includes writes in flight or issued into the dying machine.
	Acked, Issued int
	// LostAcked counts acknowledged writes missing after recovery —
	// must be zero under a persistent (UPS/NVRAM) policy.
	LostAcked int
	// LossWindow is the age of the oldest lost acknowledged write at
	// the cut (zero when nothing was lost).
	LossWindow time.Duration
	// Survivors/Replayed/Dropped trace the NVRAM replay path.
	Survivors, Replayed, Dropped int
	// DirBlocks counts directory/symlink survivors superseded by the
	// intent replay (their content is rebuilt from intents instead).
	DirBlocks int
	// Intents counts unretired namespace intents that survived the cut
	// in battery-backed memory; LostIntents those a volatile policy
	// lost, with IntentLossWindow the age of the oldest.
	Intents          int
	LostIntents      int
	IntentLossWindow time.Duration
	// IntentsApplied/IntentsNoop/IntentsDropped classify the replay of
	// the surviving intents.
	IntentsApplied, IntentsNoop, IntentsDropped int
	// NamespaceOps counts acknowledged namespace operations;
	// NamespaceLost those missing (or resurrected) after recovery —
	// must be zero under a persistent policy with the intent log on.
	NamespaceOps, NamespaceLost int
	// DeadMember is the member the death axis killed (-1 none);
	// KillIO the device I/O ordinal the death tripped at.
	DeadMember int
	KillIO     int64
	// ParityRecords/ParityApplied trace the battery-backed partial-
	// parity log across the crash (degraded parity arrays only): how
	// many in-flight column records survived the cut, and how many
	// the recovery replayed to close the RAID-5 write hole.
	ParityRecords, ParityApplied int
	// SecondCutIO is the recovery-time cut ordinal (RecoverCut runs).
	SecondCutIO int64
	// Recovery reports the layouts' own recovery work.
	Recovery layout.RecoveryStats
	// FsckErrors holds post-recovery consistency violations (must be
	// empty).
	FsckErrors []string
}

const crashFileBlocks = 8

// journal tracks, per (file, block), the newest acknowledged-before-
// cut version and the newest issued version, with ack times.
type journal struct {
	mu     sync.Mutex
	acked  map[[2]int]byte
	issued map[[2]int]byte
	ackAt  map[[2]int]time.Time
}

func crashPath(i int) string { return fmt.Sprintf("/crash-f%d", i) }

// nsOp is one journaled namespace operation. A create carries a
// one-block body (tagged with tag) written right after — the
// create+write sequence whose durability the intent log guarantees.
type nsOp struct {
	kind        string // create, rename, remove
	path, path2 string
	tag         byte
}

// nsJournal drives and records the namespace workload. The workload
// is a single task, so the ops are totally ordered and at most the
// final ones are issued-but-unacknowledged.
type nsJournal struct {
	mu    sync.Mutex
	ops   []nsOp
	acked int      // ops[:acked] were acknowledged before the cut
	queue []string // live paths of the issued model, oldest first
	tags  map[string]byte
	next  int
}

func newNSJournal() *nsJournal { return &nsJournal{tags: map[string]byte{}} }

// step issues the next namespace operation and journals its outcome.
func (nj *nsJournal) step(t sched.Task, v *fsys.Volume, plan *device.FaultPlan) {
	nj.mu.Lock()
	k := nj.next
	nj.next++
	var op nsOp
	switch {
	case k%4 == 2 && len(nj.queue) > 0:
		p := nj.queue[0]
		op = nsOp{kind: "rename", path: p, path2: p + "m", tag: nj.tags[p]}
	case k%4 == 3 && len(nj.queue) > 0:
		p := nj.queue[0]
		op = nsOp{kind: "remove", path: p, tag: nj.tags[p]}
	default:
		op = nsOp{kind: "create", path: fmt.Sprintf("/ns-%d", k), tag: byte(100 + k%100)}
	}
	nj.ops = append(nj.ops, op)
	wasAcked := nj.acked == len(nj.ops)-1
	nj.mu.Unlock()

	var err error
	switch op.kind {
	case "create":
		var h *fsys.Handle
		h, err = v.Create(t, op.path, core.TypeRegular)
		if err == nil {
			buf := crashBlock(int(op.tag), 0, 1)
			err = v.WriteAt(t, h, 0, buf, core.BlockSize)
			if cerr := v.Close(t, h); err == nil {
				err = cerr
			}
		}
	case "rename":
		err = v.Rename(t, op.path, op.path2)
	case "remove":
		err = v.Remove(t, op.path)
	}
	if err != nil || plan.HasCut() || !wasAcked {
		return // not acknowledged
	}
	nj.mu.Lock()
	switch op.kind {
	case "create":
		nj.queue = append(nj.queue, op.path)
		nj.tags[op.path] = op.tag
	case "rename":
		nj.queue[0] = op.path2
		nj.tags[op.path2] = op.tag
		delete(nj.tags, op.path)
	case "remove":
		nj.queue = nj.queue[1:]
		delete(nj.tags, op.path)
	}
	nj.acked = len(nj.ops)
	nj.mu.Unlock()
}

func crashBlock(file, blk int, ver byte) []byte {
	buf := make([]byte, core.BlockSize)
	for i := range buf {
		buf[i] = ver
	}
	buf[0], buf[1] = byte(file), byte(blk)
	return buf
}

// RunCrashPoint builds a fresh server, lays a durable baseline, runs
// the journaled workload into a power cut, recovers, and verifies.
func RunCrashPoint(spec CrashSpec) (*CrashResult, error) {
	if spec.Files <= 0 {
		spec.Files = 6
	}
	if spec.Rounds <= 0 {
		spec.Rounds = 200
	}
	if spec.Volumes <= 0 {
		spec.Volumes = 1
	}
	cluster := spec.ClusterRunBlocks
	if cluster < 1 {
		cluster = -1 // pfs.Config: negative = clustering off
	}
	cfg := Config{
		Path:             filepath.Join(spec.Dir, "crash.img"),
		Blocks:           2048,
		Volumes:          spec.Volumes,
		Placement:        spec.Placement,
		StripeBlocks:     spec.StripeBlocks,
		CacheBlocks:      96,
		CacheShards:      1,
		Flush:            spec.Flush,
		SegBlocks:        64,
		Layout:           spec.Layout,
		Seed:             spec.Seed,
		ClusterRunBlocks: cluster,
		// The plan is installed with the cut disarmed; the workload
		// arms it after the baseline is durable.
		Fault:       &device.FaultConfig{Seed: spec.Seed},
		NoIntentLog: spec.NoIntentLog,
	}
	srv, err := Open(cfg)
	if err != nil {
		return nil, err
	}

	// Durable baseline: every file exists with version-1 blocks and a
	// completed sync, so the crash window contains only data writes —
	// the objects the paper's policies protect.
	err = srv.Do(func(t sched.Task) error {
		v := srv.Vol
		for f := 0; f < spec.Files; f++ {
			h, err := v.Create(t, crashPath(f), core.TypeRegular)
			if err != nil {
				return err
			}
			for b := 0; b < crashFileBlocks; b++ {
				buf := crashBlock(f, b, 1)
				if err := v.WriteAt(t, h, int64(b)*core.BlockSize, buf, core.BlockSize); err != nil {
					return err
				}
			}
			if err := v.Close(t, h); err != nil {
				return err
			}
		}
		return srv.FS.SyncAll(t)
	})
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("crash baseline: %w", err)
	}

	// Arm the cut, counting I/Os from here.
	fc := device.FaultConfig{
		Seed: spec.Seed, CutAfterIO: spec.CutAfterIO, CutTearsWrite: true,
		CutTearsSubBlock: spec.TearSubBlock,
	}
	if spec.Kill && spec.KillAfterIO > 0 {
		fc.KillAfterIO, fc.KillMember = spec.KillAfterIO, spec.KillMember
	}
	plan := device.NewFaultPlan(fc)
	plan.OnCut(srv.Cache.PowerOff)
	if spec.Kill {
		plan.OnKill(func(m int) { _ = srv.Array.KillMember(m) })
	}
	for _, drv := range srv.Drivers {
		drv.SetInjector(plan)
	}
	if spec.Kill && spec.KillAfterIO <= 0 {
		// Death before the window's first I/O: the whole crash window
		// runs degraded.
		if err := srv.Array.KillMember(spec.KillMember); err != nil {
			srv.Close()
			return nil, fmt.Errorf("crash kill: %w", err)
		}
		plan.Kill(spec.KillMember)
	}

	j := &journal{
		acked:  map[[2]int]byte{},
		issued: map[[2]int]byte{},
		ackAt:  map[[2]int]time.Time{},
	}
	for f := 0; f < spec.Files; f++ {
		for b := 0; b < crashFileBlocks; b++ {
			j.acked[[2]int{f, b}] = 1
			j.issued[[2]int{f, b}] = 1
			j.ackAt[[2]int{f, b}] = time.Now()
		}
	}

	nj := newNSJournal()
	cutCh := make(chan struct{})
	plan.OnCut(func() { close(cutCh) })
	done := make(chan struct{})
	srv.K.Go("crash.workload", func(t sched.Task) {
		defer close(done)
		v := srv.Vol
		handles := make(map[int]*fsys.Handle)
		for f := 0; f < spec.Files; f++ {
			h, err := v.Open(t, crashPath(f))
			if err != nil {
				return
			}
			handles[f] = h
		}
		for r := 0; r < spec.Rounds && !plan.HasCut(); r++ {
			if spec.Namespace && r%3 == 2 {
				nj.step(t, v, plan)
				if plan.HasCut() {
					break
				}
			}
			f := r % spec.Files
			b := (r / spec.Files) % crashFileBlocks
			key := [2]int{f, b}
			j.mu.Lock()
			ver := j.issued[key] + 1
			j.issued[key] = ver
			j.mu.Unlock()
			buf := crashBlock(f, b, ver)
			err := v.WriteAt(t, handles[f], int64(b)*core.BlockSize, buf, core.BlockSize)
			if err != nil {
				return // the machine is dying; stop issuing
			}
			if !plan.HasCut() {
				j.mu.Lock()
				j.acked[key] = ver
				j.ackAt[key] = time.Now()
				j.mu.Unlock()
			}
			if r%8 == 7 {
				t.Sleep(time.Millisecond) // let the update daemon age blocks
			}
		}
	})

	select {
	case <-done:
		// Workload drained without tripping the cut (or died): crash
		// at quiescence.
		plan.Cut()
	case <-cutCh:
	}
	crashAt := time.Now()
	rep := srv.Crash()
	// With the kernel halted, dump the battery-backed partial-parity
	// records next to the cache's survivors: they are what a degraded
	// parity array needs to close the write hole on recovery.
	precs := srv.Array.PendingParity()
	res := &CrashResult{
		CutIO:            plan.CutIO(),
		Survivors:        len(rep.Survivors),
		Intents:          len(rep.Intents),
		LostIntents:      rep.LostIntents,
		IntentLossWindow: rep.IntentLossWindow,
		DeadMember:       srv.Array.DeadMember(),
		KillIO:           plan.KillIO(),
		ParityRecords:    len(precs),
	}
	j.mu.Lock()
	res.Acked = len(j.acked)
	res.Issued = len(j.issued)
	j.mu.Unlock()

	// Dump the battery-backed intents the way an NVRAM region would be
	// read off at boot — the artifact cmd/fsck -intents verifies.
	if len(rep.Intents) > 0 && spec.Dir != "" {
		_ = os.WriteFile(filepath.Join(spec.Dir, "intents.bin"),
			cache.EncodeIntents(rep.Intents), 0o644)
	}

	// Power restored: recover on a fresh server over the same images.
	// A member the death axis killed stays dead across the reboot —
	// its image is stale — so the mount is the degraded reopen and
	// every verification read goes through the redundancy.
	cfg.Fault = nil
	cfg.Recover = true
	if res.DeadMember >= 0 {
		cfg.Dead = []int{res.DeadMember}
	}
	surv, intents := rep.Survivors, rep.Intents
	if spec.RecoverCut > 0 {
		surv, intents, precs = crashUnderRecovery(cfg, spec, rep, res, precs)
	}
	srv2, err := Open(cfg)
	if err != nil {
		return res, fmt.Errorf("recovery mount: %w", err)
	}
	defer srv2.Close()
	if srv2.Recovery != nil {
		res.Recovery = *srv2.Recovery
	}
	err = srv2.Do(func(t sched.Task) error {
		// The partial-parity records must land before the survivor
		// replay: they re-establish the degraded columns' parity so the
		// replay's read-modify-writes fold a consistent parity forward.
		n, perr := srv2.Array.ReplayParity(t, precs)
		res.ParityApplied = n
		if perr != nil {
			return fmt.Errorf("parity replay: %w", perr)
		}
		st, err := srv2.FS.ReplayNVRAM(t, surv, intents)
		res.Replayed, res.Dropped, res.DirBlocks = st.Replayed, st.Dropped, st.DirBlocks
		res.IntentsApplied, res.IntentsNoop, res.IntentsDropped =
			st.IntentsApplied, st.IntentsNoop, st.IntentsDropped
		if err != nil {
			return err
		}
		return srv2.FS.SyncAll(t)
	})
	if err != nil {
		return res, fmt.Errorf("NVRAM replay: %w", err)
	}

	// fsck every live member, then verify the journal. The dead
	// member's image is stale by definition; its share is checked
	// through the parity/mirror reads the journal verification does.
	err = srv2.Do(func(t sched.Task) error {
		deadm := srv2.Array.DeadMember()
		for i, sub := range srv2.Array.Subs() {
			if i == deadm {
				continue
			}
			switch l := sub.(type) {
			case *lfs.LFS:
				for _, e := range l.Check(t) {
					res.FsckErrors = append(res.FsckErrors, e.Error())
				}
			case *ffs.FFS:
				for _, e := range l.Check(t) {
					res.FsckErrors = append(res.FsckErrors, e.Error())
				}
			}
		}
		if err := verifyJournal(t, srv2, spec, j, crashAt, res); err != nil {
			return err
		}
		if spec.Namespace {
			verifyNamespace(t, srv2, spec, nj, res)
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	return res, nil
}

// crashUnderRecovery runs the recovery with a second armed power cut
// and returns the crash state the *final* recovery must work from:
// the original report if the second cut preempted everything, or the
// merge of both reports if the cut interrupted the replay midway.
func crashUnderRecovery(cfg Config, spec CrashSpec, rep *cache.CrashReport, res *CrashResult, precs []volume.ParityRecord) ([]cache.Survivor, []cache.Intent, []volume.ParityRecord) {
	cfg.Fault = &device.FaultConfig{
		Seed: spec.Seed + 1, CutAfterIO: spec.RecoverCut, CutTearsWrite: true,
	}
	mid, err := Open(cfg)
	if err != nil {
		// The cut tripped inside the recovery mount itself: nothing
		// new was acknowledged, the original report stands.
		res.SecondCutIO = spec.RecoverCut
		return rep.Survivors, rep.Intents, precs
	}
	rerr := mid.Do(func(t sched.Task) error {
		if _, err := mid.Array.ReplayParity(t, precs); err != nil {
			return err
		}
		if _, err := mid.FS.ReplayNVRAM(t, rep.Survivors, rep.Intents); err != nil {
			return err
		}
		return mid.FS.SyncAll(t)
	})
	if rerr == nil && !mid.Fault.HasCut() {
		// Recovery outran the cut point; close cleanly. The final
		// recovery re-replays over finished state — the idempotence
		// case.
		mid.Close()
		return rep.Survivors, rep.Intents, precs
	}
	res.SecondCutIO = mid.Fault.CutIO()
	rep2 := mid.Crash()
	// Parity records torn a second time: the ORIGINAL record for a
	// column wins (its pp was computed against consistent state; the
	// interrupted recovery's re-records read possibly-torn cells).
	precs2 := mergeParity(precs, mid.Array.PendingParity())
	surv, intents := mergeCrashState(rep, rep2)
	return surv, intents, precs2
}

// mergeParity keeps, per column, the earliest record across both
// crashes — the one computed against consistent media.
func mergeParity(a, b []volume.ParityRecord) []volume.ParityRecord {
	type key struct {
		f    core.FileID
		s, o int64
	}
	seen := map[key]bool{}
	out := append([]volume.ParityRecord(nil), a...)
	for _, r := range a {
		seen[key{r.File, r.Stripe, r.Offset}] = true
	}
	for _, r := range b {
		if !seen[key{r.File, r.Stripe, r.Offset}] {
			out = append(out, r)
		}
	}
	return out
}

// mergeCrashState combines two crash reports: the later report's
// survivors win per block, and its intents (re-recorded during the
// interrupted replay) are renumbered after the first report's so the
// concatenation replays in chronological order.
func mergeCrashState(a, b *cache.CrashReport) ([]cache.Survivor, []cache.Intent) {
	idx := map[core.BlockKey]int{}
	surv := append([]cache.Survivor(nil), a.Survivors...)
	for i, s := range surv {
		idx[s.Key] = i
	}
	for _, s := range b.Survivors {
		if i, ok := idx[s.Key]; ok {
			surv[i] = s
		} else {
			idx[s.Key] = len(surv)
			surv = append(surv, s)
		}
	}
	sort.Slice(surv, func(i, j int) bool {
		x, y := surv[i].Key, surv[j].Key
		if x.Vol != y.Vol {
			return x.Vol < y.Vol
		}
		if x.File != y.File {
			return x.File < y.File
		}
		return x.Blk < y.Blk
	})
	var base uint64
	for _, it := range a.Intents {
		if it.Seq > base {
			base = it.Seq
		}
	}
	intents := append([]cache.Intent(nil), a.Intents...)
	for _, it := range b.Intents {
		it.Seq += base
		intents = append(intents, it)
	}
	return surv, intents
}

// RebuildCrashSpec configures one crash-during-rebuild exercise: lose
// a member, rebuild it online, and cut the power at an arbitrary
// device I/O of the rebuild itself.
type RebuildCrashSpec struct {
	Dir       string
	Layout    string
	Volumes   int
	Placement string
	// StripeBlocks is the redundant chunk width (0 = default).
	StripeBlocks int
	// KillMember is the member declared dead before the rebuild.
	KillMember int
	// CutAfterIO trips the power cut at the Nth device I/O issued by
	// the rebuild (0 = never: the control run, which must converge
	// without a crash).
	CutAfterIO int64
	// Files sizes the dataset (default 4, crashFileBlocks blocks each).
	Files int
	Seed  int64
}

// RebuildCrashResult is what one exercise observed.
type RebuildCrashResult struct {
	// CutIO is the rebuild I/O ordinal the cut tripped at (0: the
	// rebuild outran the cut point).
	CutIO int64
	// Interrupted reports whether the power cut tripped mid-rebuild;
	// RebuildErr carries the first rebuild's error when it failed.
	Interrupted bool
	RebuildErr  string
	// Scrub is the final full-array consistency scan: Mismatches and
	// Skipped must be zero on the converged array.
	Scrub volume.ScrubStats
	// FsckErrors holds post-convergence violations (must be empty).
	FsckErrors []string
}

// RunRebuildCrash drives the crash-during-rebuild cell: build a
// dataset, kill a member, update the survivors degraded, then rebuild
// the member online with a power cut armed at an arbitrary rebuild
// I/O. Whatever the cut leaves behind — a half-copied replacement
// image, a torn survivor checkpoint — recovery reopens (degraded if
// the rebuild had not completed), rebuilds again from scratch, and
// must converge to an fsck-clean, scrub-clean array holding exactly
// the acknowledged data. The rebuild's correctness argument makes
// this safe at ANY cut point: the replacement is write-only state,
// the survivors still hold every byte.
func RunRebuildCrash(spec RebuildCrashSpec) (*RebuildCrashResult, error) {
	if spec.Files <= 0 {
		spec.Files = 4
	}
	if spec.Volumes <= 0 {
		spec.Volumes = 3
	}
	cfg := Config{
		Path:         filepath.Join(spec.Dir, "rebuild.img"),
		Blocks:       2048,
		Volumes:      spec.Volumes,
		Placement:    spec.Placement,
		StripeBlocks: spec.StripeBlocks,
		CacheBlocks:  96,
		CacheShards:  1,
		SegBlocks:    64,
		Layout:       spec.Layout,
		Seed:         spec.Seed,
	}
	srv, err := Open(cfg)
	if err != nil {
		return nil, err
	}

	// Versioned dataset: v1 everywhere, then — degraded — v2 over a
	// deterministic subset. Everything is acknowledged and synced, so
	// the armed cut counts rebuild I/Os only and recovery has nothing
	// to replay but the rebuild's own state.
	want := make(map[[2]int]byte)
	err = srv.Do(func(t sched.Task) error {
		v := srv.Vol
		for f := 0; f < spec.Files; f++ {
			h, err := v.Create(t, crashPath(f), core.TypeRegular)
			if err != nil {
				return err
			}
			for b := 0; b < crashFileBlocks; b++ {
				if err := v.WriteAt(t, h, int64(b)*core.BlockSize, crashBlock(f, b, 1), core.BlockSize); err != nil {
					return err
				}
				want[[2]int{f, b}] = 1
			}
			if err := v.Close(t, h); err != nil {
				return err
			}
		}
		return srv.FS.SyncAll(t)
	})
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("rebuild baseline: %w", err)
	}
	if err := srv.KillMember(spec.KillMember); err != nil {
		srv.Close()
		return nil, err
	}
	err = srv.Do(func(t sched.Task) error {
		v := srv.Vol
		for f := 0; f < spec.Files; f++ {
			h, err := v.Open(t, crashPath(f))
			if err != nil {
				return err
			}
			for b := 0; b < crashFileBlocks; b += 2 {
				if err := v.WriteAt(t, h, int64(b)*core.BlockSize, crashBlock(f, b, 2), core.BlockSize); err != nil {
					return err
				}
				want[[2]int{f, b}] = 2
			}
			if err := v.Close(t, h); err != nil {
				return err
			}
		}
		return srv.FS.SyncAll(t)
	})
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("degraded update: %w", err)
	}

	// Arm the cut over the members' drivers and rebuild. (The
	// replacement's own driver, stood up mid-rebuild, bypasses the
	// plan — a torn replacement image is exactly the state the
	// recovery must shrug off.)
	plan := device.NewFaultPlan(device.FaultConfig{
		Seed: spec.Seed, CutAfterIO: spec.CutAfterIO, CutTearsWrite: true,
	})
	plan.OnCut(srv.Cache.PowerOff)
	for _, drv := range srv.Drivers {
		drv.SetInjector(plan)
	}
	res := &RebuildCrashResult{}
	if rerr := srv.RebuildMember(spec.KillMember); rerr != nil {
		res.RebuildErr = rerr.Error()
	}
	res.CutIO = plan.CutIO()
	res.Interrupted = plan.HasCut()
	degraded := srv.Array.Degraded()
	rep := srv.Crash()
	precs := srv.Array.PendingParity()

	cfg.Recover = true
	if degraded {
		cfg.Dead = []int{spec.KillMember}
	}
	srv2, err := Open(cfg)
	if err != nil {
		return res, fmt.Errorf("recovery mount: %w", err)
	}
	defer srv2.Close()
	err = srv2.Do(func(t sched.Task) error {
		if _, err := srv2.Array.ReplayParity(t, precs); err != nil {
			return err
		}
		if _, err := srv2.FS.ReplayNVRAM(t, rep.Survivors, rep.Intents); err != nil {
			return err
		}
		return srv2.FS.SyncAll(t)
	})
	if err != nil {
		return res, fmt.Errorf("recovery replay: %w", err)
	}
	if srv2.Array.Degraded() {
		if err := srv2.RebuildMember(spec.KillMember); err != nil {
			return res, fmt.Errorf("converging rebuild: %w", err)
		}
	}

	// The converged array must be healthy, fsck-clean, scrub-clean and
	// hold exactly the acknowledged versions.
	err = srv2.Do(func(t sched.Task) error {
		for _, sub := range srv2.Array.Subs() {
			switch l := sub.(type) {
			case *lfs.LFS:
				for _, e := range l.Check(t) {
					res.FsckErrors = append(res.FsckErrors, e.Error())
				}
			case *ffs.FFS:
				for _, e := range l.Check(t) {
					res.FsckErrors = append(res.FsckErrors, e.Error())
				}
			}
		}
		st, err := srv2.Array.Scrub(t, false)
		if err != nil {
			return err
		}
		res.Scrub = st
		if st.Mismatches > 0 || st.Skipped > 0 {
			res.FsckErrors = append(res.FsckErrors, fmt.Sprintf(
				"scrub after rebuild: %d mismatch(es), %d block(s) unverifiable", st.Mismatches, st.Skipped))
		}
		v := srv2.Vol
		buf := make([]byte, core.BlockSize)
		for f := 0; f < spec.Files; f++ {
			h, err := v.Open(t, crashPath(f))
			if err != nil {
				return fmt.Errorf("file %d lost after rebuild: %w", f, err)
			}
			for b := 0; b < crashFileBlocks; b++ {
				if _, err := v.ReadAt(t, h, int64(b)*core.BlockSize, buf, core.BlockSize); err != nil {
					return fmt.Errorf("read f%d/b%d: %w", f, b, err)
				}
				wantv := want[[2]int{f, b}]
				if buf[0] != byte(f) || buf[1] != byte(b) || buf[2] != wantv {
					res.FsckErrors = append(res.FsckErrors, fmt.Sprintf(
						"f%d/b%d: want v%d, have tags %d/%d v%d", f, b, wantv, buf[0], buf[1], buf[2]))
				}
			}
			v.Close(t, h)
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	return res, nil
}

// AutoRebuildCrashSpec configures one crash-during-supervised-repair
// exercise: a self-healing server (hot spare attached, supervisor on)
// loses a member at the fault seam, serves a degraded update, then
// runs the supervised repair — isolate, promote the spare, rebuild,
// scrub-verify — with a power cut armed at an arbitrary device I/O of
// the repair itself.
type AutoRebuildCrashSpec struct {
	Dir       string
	Layout    string
	Volumes   int
	Placement string
	// StripeBlocks is the redundant chunk width (0 = default).
	StripeBlocks int
	// KillMember is the member killed at the fault seam.
	KillMember int
	// CutAfterIO trips the power cut at the Nth device I/O after the
	// supervised repair is triggered (0 = never: the control run,
	// which must heal and converge without a crash).
	CutAfterIO int64
	// Files sizes the dataset (default 4, crashFileBlocks blocks each).
	Files int
	Seed  int64
}

// AutoRebuildCrashResult is what one exercise observed.
type AutoRebuildCrashResult struct {
	// CutIO is the I/O ordinal the cut tripped at (0: the repair
	// outran the cut point).
	CutIO int64
	// Interrupted reports whether the power cut tripped mid-repair.
	Interrupted bool
	// Heal is the supervised repair's event: Err carries the repair's
	// failure when the cut interrupted it.
	Heal HealEvent
	// Scrub is the final full-array consistency scan: Mismatches and
	// Skipped must be zero on the converged array.
	Scrub volume.ScrubStats
	// FsckErrors holds post-convergence violations (must be empty).
	FsckErrors []string
}

// RunAutoRebuildCrash drives the crash-during-supervised-repair cell.
// Unlike RunRebuildCrash, the repair here is the server's own: the
// spare was pre-provisioned at Open, the kill lands at the fault seam
// (so the array self-isolates from live evidence), and the rebuild
// target is the promoted spare — whose image adoption (the rename
// onto the member path) is itself exposed to the cut. Whatever state
// the cut leaves — a half-rebuilt spare still at its pool path, or an
// adopted member image mid-copy — recovery must reopen (degraded if
// the repair had not completed), rebuild from the survivors, and
// converge to an fsck-clean, scrub-clean array holding exactly the
// acknowledged data.
func RunAutoRebuildCrash(spec AutoRebuildCrashSpec) (*AutoRebuildCrashResult, error) {
	if spec.Files <= 0 {
		spec.Files = 4
	}
	if spec.Volumes <= 0 {
		spec.Volumes = 3
	}
	cfg := Config{
		Path:         filepath.Join(spec.Dir, "autorebuild.img"),
		Blocks:       2048,
		Volumes:      spec.Volumes,
		Placement:    spec.Placement,
		StripeBlocks: spec.StripeBlocks,
		CacheBlocks:  96,
		CacheShards:  1,
		SegBlocks:    64,
		Layout:       spec.Layout,
		Seed:         spec.Seed,
		Spares:       1,
		SelfHeal:     true,
		// The sweep drives the repair synchronously through the manual
		// override; an hour-long tick keeps the background Observe from
		// racing the cut arming.
		HealthInterval: time.Hour,
		Fault:          &device.FaultConfig{Seed: spec.Seed, CutTearsWrite: true},
	}
	srv, err := Open(cfg)
	if err != nil {
		return nil, err
	}

	// Versioned dataset: v1 everywhere, synced durable.
	want := make(map[[2]int]byte)
	err = srv.Do(func(t sched.Task) error {
		v := srv.Vol
		for f := 0; f < spec.Files; f++ {
			h, err := v.Create(t, crashPath(f), core.TypeRegular)
			if err != nil {
				return err
			}
			for b := 0; b < crashFileBlocks; b++ {
				if err := v.WriteAt(t, h, int64(b)*core.BlockSize, crashBlock(f, b, 1), core.BlockSize); err != nil {
					return err
				}
				want[[2]int{f, b}] = 1
			}
			if err := v.Close(t, h); err != nil {
				return err
			}
		}
		return srv.FS.SyncAll(t)
	})
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("autorebuild baseline: %w", err)
	}

	// The member dies at the fault seam; the degraded update lands on
	// the survivors (the array self-isolates on the first dead error),
	// synced durable — so the dead member is genuinely stale and the
	// armed cut counts repair I/Os only.
	srv.Fault.Kill(spec.KillMember)
	err = srv.Do(func(t sched.Task) error {
		v := srv.Vol
		for f := 0; f < spec.Files; f++ {
			h, err := v.Open(t, crashPath(f))
			if err != nil {
				return err
			}
			for b := 0; b < crashFileBlocks; b += 2 {
				if err := v.WriteAt(t, h, int64(b)*core.BlockSize, crashBlock(f, b, 2), core.BlockSize); err != nil {
					return err
				}
				want[[2]int{f, b}] = 2
			}
			if err := v.Close(t, h); err != nil {
				return err
			}
		}
		return srv.FS.SyncAll(t)
	})
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("degraded update: %w", err)
	}

	// Arm the cut and run the supervised repair to its end (success or
	// the cut's interruption — MarkMemberDead drives the heal inline).
	srv.Fault.ArmCut(spec.CutAfterIO)
	res := &AutoRebuildCrashResult{}
	if err := srv.MarkMemberDead(spec.KillMember); err != nil {
		srv.Close()
		return nil, fmt.Errorf("mark dead: %w", err)
	}
	if evs := srv.HealEvents(); len(evs) > 0 {
		res.Heal = evs[len(evs)-1]
	}
	res.CutIO = srv.Fault.CutIO()
	res.Interrupted = srv.Fault.HasCut()
	degraded := srv.Array.Degraded()
	rep := srv.Crash()
	precs := srv.Array.PendingParity()

	// Power restored: the self-heal machinery stays off for the
	// converging pass — the question is whether the images recover.
	cfg.Fault = nil
	cfg.SelfHeal = false
	cfg.Spares = 0
	cfg.Recover = true
	if degraded {
		cfg.Dead = []int{spec.KillMember}
	}
	srv2, err := Open(cfg)
	if err != nil {
		return res, fmt.Errorf("recovery mount: %w", err)
	}
	defer srv2.Close()
	err = srv2.Do(func(t sched.Task) error {
		if _, err := srv2.Array.ReplayParity(t, precs); err != nil {
			return err
		}
		if _, err := srv2.FS.ReplayNVRAM(t, rep.Survivors, rep.Intents); err != nil {
			return err
		}
		return srv2.FS.SyncAll(t)
	})
	if err != nil {
		return res, fmt.Errorf("recovery replay: %w", err)
	}
	if srv2.Array.Degraded() {
		if err := srv2.RebuildMember(spec.KillMember); err != nil {
			return res, fmt.Errorf("converging rebuild: %w", err)
		}
	}

	// The converged array must be healthy, fsck-clean, scrub-clean and
	// hold exactly the acknowledged versions.
	err = srv2.Do(func(t sched.Task) error {
		for _, sub := range srv2.Array.Subs() {
			switch l := sub.(type) {
			case *lfs.LFS:
				for _, e := range l.Check(t) {
					res.FsckErrors = append(res.FsckErrors, e.Error())
				}
			case *ffs.FFS:
				for _, e := range l.Check(t) {
					res.FsckErrors = append(res.FsckErrors, e.Error())
				}
			}
		}
		st, err := srv2.Array.Scrub(t, false)
		if err != nil {
			return err
		}
		res.Scrub = st
		if st.Mismatches > 0 || st.Skipped > 0 {
			res.FsckErrors = append(res.FsckErrors, fmt.Sprintf(
				"scrub after auto-rebuild: %d mismatch(es), %d block(s) unverifiable", st.Mismatches, st.Skipped))
		}
		v := srv2.Vol
		buf := make([]byte, core.BlockSize)
		for f := 0; f < spec.Files; f++ {
			h, err := v.Open(t, crashPath(f))
			if err != nil {
				return fmt.Errorf("file %d lost after auto-rebuild: %w", f, err)
			}
			for b := 0; b < crashFileBlocks; b++ {
				if _, err := v.ReadAt(t, h, int64(b)*core.BlockSize, buf, core.BlockSize); err != nil {
					return fmt.Errorf("read f%d/b%d: %w", f, b, err)
				}
				wantv := want[[2]int{f, b}]
				if buf[0] != byte(f) || buf[1] != byte(b) || buf[2] != wantv {
					res.FsckErrors = append(res.FsckErrors, fmt.Sprintf(
						"f%d/b%d: want v%d, have tags %d/%d v%d", f, b, wantv, buf[0], buf[1], buf[2]))
				}
			}
			v.Close(t, h)
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	return res, nil
}

// verifyNamespace checks every journaled namespace operation against
// the recovered tree. Acknowledged state must be exactly present: a
// created file exists with its full tagged body, a removed or
// renamed-away path stays absent. Paths the unacknowledged tail
// touched may land either way. Violations count as NamespaceLost and
// — under a persistent policy with the intent log on — as errors.
func verifyNamespace(t sched.Task, srv *Server, spec CrashSpec, nj *nsJournal, res *CrashResult) {
	nj.mu.Lock()
	ops := append([]nsOp(nil), nj.ops...)
	acked := nj.acked
	nj.mu.Unlock()
	res.NamespaceOps = acked

	type fstate struct {
		exists bool
		tag    byte
	}
	want := map[string]fstate{}
	for _, op := range ops[:acked] {
		switch op.kind {
		case "create":
			want[op.path] = fstate{exists: true, tag: op.tag}
		case "rename":
			want[op.path] = fstate{}
			want[op.path2] = fstate{exists: true, tag: op.tag}
		case "remove":
			want[op.path] = fstate{}
		}
	}
	loose := map[string]bool{}
	for _, op := range ops[acked:] {
		loose[op.path] = true
		if op.path2 != "" {
			loose[op.path2] = true
		}
	}
	paths := make([]string, 0, len(want))
	for p := range want {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	v := srv.Vol
	strict := spec.Flush.Persistent && !spec.NoIntentLog
	fail := func(format string, args ...any) {
		res.NamespaceLost++
		if strict {
			res.FsckErrors = append(res.FsckErrors, fmt.Sprintf(format, args...))
		}
	}
	for _, p := range paths {
		if loose[p] {
			continue
		}
		w := want[p]
		h, err := v.Open(t, p)
		if !w.exists {
			if err == nil {
				v.Close(t, h)
				fail("policy %s resurrected removed path %s after recovery", spec.Flush.Name, p)
			}
			continue
		}
		if err != nil {
			fail("policy %s lost acknowledged namespace op: %s missing after recovery",
				spec.Flush.Name, p)
			continue
		}
		buf := make([]byte, core.BlockSize)
		n, rerr := v.ReadAt(t, h, 0, buf, core.BlockSize)
		bad := rerr != nil || n != core.BlockSize || buf[0] != w.tag || buf[1] != 0
		if !bad {
			for i := 2; i < core.BlockSize; i++ {
				if buf[i] != 1 {
					bad = true
					break
				}
			}
		}
		v.Close(t, h)
		if bad {
			fail("policy %s lost the acknowledged body of created file %s", spec.Flush.Name, p)
		}
	}
}

// verifyJournal reads every journaled block back and classifies it.
func verifyJournal(t sched.Task, srv *Server, spec CrashSpec, j *journal, crashAt time.Time, res *CrashResult) error {
	v := srv.Vol
	persistent := spec.Flush.Persistent
	for f := 0; f < spec.Files; f++ {
		h, err := v.Open(t, crashPath(f))
		if err != nil {
			return fmt.Errorf("file %d lost entirely after recovery: %w", f, err)
		}
		for b := 0; b < crashFileBlocks; b++ {
			key := [2]int{f, b}
			buf := make([]byte, core.BlockSize)
			n, err := v.ReadAt(t, h, int64(b)*core.BlockSize, buf, core.BlockSize)
			if err != nil {
				return fmt.Errorf("read f%d/b%d: %w", f, b, err)
			}
			got := byte(0)
			if n == core.BlockSize {
				got = buf[2]
				// Torn or cross-linked content must never surface.
				if buf[0] != byte(f) || buf[1] != byte(b) {
					return fmt.Errorf("f%d/b%d: foreign content (tags %d/%d)", f, b, buf[0], buf[1])
				}
				for i := 3; i < core.BlockSize; i++ {
					if buf[i] != got {
						return fmt.Errorf("f%d/b%d: torn block surfaced (byte %d)", f, b, i)
					}
				}
			}
			j.mu.Lock()
			acked, issued, ackAt := j.acked[key], j.issued[key], j.ackAt[key]
			j.mu.Unlock()
			if got > issued {
				return fmt.Errorf("f%d/b%d: version %d from the future (issued %d)", f, b, got, issued)
			}
			if got < 1 {
				return fmt.Errorf("f%d/b%d: durable baseline lost", f, b)
			}
			if got < acked {
				res.LostAcked++
				if age := crashAt.Sub(ackAt); age > res.LossWindow {
					res.LossWindow = age
				}
				if persistent {
					res.FsckErrors = append(res.FsckErrors, fmt.Sprintf(
						"policy %s lost acknowledged write f%d/b%d (have v%d, acked v%d)",
						spec.Flush.Name, f, b, got, acked))
				}
			}
		}
		v.Close(t, h)
	}
	return nil
}
