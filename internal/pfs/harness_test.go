package pfs

// The crash-injection harness: run a journaled write workload against
// a live PFS, cut the power at an arbitrary device I/O through the
// fault seam, then recover — Server.Crash hands back the battery and
// Open replays it (roll-forward/repair, parity records, NVRAM
// survivors and intents) — fsck the result, and verify every
// surviving byte against the journal. This is the machinery behind
// the paper's reliability claim: under the UPS/NVRAM policies an
// acknowledged write must never be lost; under write-delay the loss
// is real and bounded by the update daemon's age limit.

import (
	"errors"
	"fmt"
	"maps"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fsys"
	"repro/internal/health"
	"repro/internal/sched"
	"repro/internal/stack"
	"repro/internal/volume"
)

// crashSpec configures one crash-recovery exercise.
type crashSpec struct {
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
	// Nth device I/O of the recovery itself (remount, parity and
	// intent replay, survivor write-back), then recovers again from
	// the battery that recovery handed back — the crash-under-recovery
	// sweep. Replay must be idempotent for this to converge.
	RecoverCut int64
	// TearSubBlock makes the cut tear single-block writes to a random
	// byte prefix — the sector-granular tear through an inode table or
	// allocation bitmap that the per-record checksums must catch.
	TearSubBlock bool
}

// crashResult is what one exercise observed.
type crashResult struct {
	// LostAcked counts acknowledged writes missing after recovery —
	// must be zero under a persistent (UPS/NVRAM) policy.
	LostAcked int
	// LossWindow is the age of the oldest lost acknowledged write at
	// the cut (zero when nothing was lost).
	LossWindow time.Duration
	// Survivors/Replayed/Dropped trace the NVRAM replay path.
	Survivors, Replayed, Dropped int
	// Intents counts unretired namespace intents that survived the cut
	// in battery-backed memory.
	Intents int
	// NamespaceLost counts acknowledged namespace operations missing
	// (or resurrected) after recovery — must be zero under a
	// persistent policy with the intent log on.
	NamespaceLost int
	// DeadMember is the member the death axis killed (-1 none).
	DeadMember int
	// ParityRecords/ParityApplied trace the battery-backed partial-
	// parity log across the crash (degraded parity arrays only): how
	// many in-flight column records survived the cut, and how many
	// the recovery replayed to close the RAID-5 write hole.
	ParityRecords, ParityApplied int
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

// writeVersions writes version ver over every step-th block of the
// crash files (creating them at version 1), records each write in
// want, and syncs it durable.
func writeVersions(srv *Server, files, step int, ver byte, want map[[2]int]byte) error {
	return srv.Do(func(t sched.Task) error {
		v := srv.Vol
		for f := 0; f < files; f++ {
			var h *fsys.Handle
			var err error
			if ver == 1 {
				h, err = v.Create(t, crashPath(f), core.TypeRegular)
			} else {
				h, err = v.Open(t, crashPath(f))
			}
			if err != nil {
				return err
			}
			for b := 0; b < crashFileBlocks; b += step {
				if err := v.WriteAt(t, h, int64(b)*core.BlockSize, crashBlock(f, b, ver), core.BlockSize); err != nil {
					return err
				}
				want[[2]int{f, b}] = ver
			}
			if err := v.Close(t, h); err != nil {
				return err
			}
		}
		return srv.FS.SyncAll(t)
	})
}

// readVersion reads block b of crash file f back and returns its
// version (0 for a short block). Torn or cross-linked content must
// never surface: it is an error.
func readVersion(t sched.Task, v *fsys.Volume, h *fsys.Handle, f, b int) (byte, error) {
	buf := make([]byte, core.BlockSize)
	n, err := v.ReadAt(t, h, int64(b)*core.BlockSize, buf, core.BlockSize)
	if err != nil {
		return 0, fmt.Errorf("read f%d/b%d: %w", f, b, err)
	}
	if n != core.BlockSize {
		return 0, nil
	}
	if buf[0] != byte(f) || buf[1] != byte(b) {
		return 0, fmt.Errorf("f%d/b%d: foreign content (tags %d/%d)", f, b, buf[0], buf[1])
	}
	for i := 3; i < core.BlockSize; i++ {
		if buf[i] != buf[2] {
			return 0, fmt.Errorf("f%d/b%d: torn block surfaced (byte %d)", f, b, i)
		}
	}
	return buf[2], nil
}

// checkVersions reads every block of the crash files back and hands
// its version to check.
func checkVersions(t sched.Task, v *fsys.Volume, files int, check func(f, b int, got byte) error) error {
	for f := 0; f < files; f++ {
		h, err := v.Open(t, crashPath(f))
		if err != nil {
			return fmt.Errorf("file %d lost entirely after recovery: %w", f, err)
		}
		for b := 0; b < crashFileBlocks; b++ {
			got, err := readVersion(t, v, h, f, b)
			if err == nil {
				err = check(f, b, got)
			}
			if err != nil {
				return err
			}
		}
		v.Close(t, h)
	}
	return nil
}

// fsckMembers checks every live member's layout. The dead member's
// image is stale by definition; its share is checked through the
// parity/mirror reads the version verification does.
func fsckMembers(t sched.Task, a *volume.Array) []string {
	var errs []string
	for i, sub := range a.Subs() {
		if i == a.DeadMember() {
			continue
		}
		for _, e := range sub.Check(t) {
			errs = append(errs, e.Error())
		}
	}
	return errs
}

// runCrashPoint builds a fresh server, lays a durable baseline, runs
// the journaled workload into a power cut, recovers, and verifies.
func runCrashPoint(spec crashSpec) (*crashResult, error) {
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
	base := map[[2]int]byte{}
	if err := writeVersions(srv, spec.Files, 1, 1, base); err != nil {
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
	for _, drv := range srv.Members.Drivers {
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

	j := &journal{acked: base, issued: maps.Clone(base), ackAt: map[[2]int]time.Time{}}
	for key := range base {
		j.ackAt[key] = time.Now()
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
	cfg.Recover = srv.Crash()
	res := &crashResult{
		Survivors:     len(cfg.Recover.Survivors),
		Intents:       len(cfg.Recover.Intents),
		DeadMember:    srv.Array.DeadMember(),
		ParityRecords: len(slices.Concat(cfg.Recover.Parity...)),
	}

	// Power restored: recover on a fresh server over the same images.
	// A member the death axis killed stays dead across the reboot —
	// its image is stale — so the mount is the degraded reopen and
	// every verification read goes through the redundancy.
	cfg.Fault = nil
	if res.DeadMember >= 0 {
		cfg.Dead = []int{res.DeadMember}
	}
	if spec.RecoverCut > 0 {
		if cfg.Recover, err = crashUnderRecovery(cfg, spec); err != nil {
			return res, err
		}
	}
	srv2, err := Open(cfg)
	if err != nil {
		return res, fmt.Errorf("recovery mount: %w", err)
	}
	defer srv2.Close()
	rec := srv2.Recovery
	res.ParityApplied, res.Replayed, res.Dropped = rec.ParityApplied, rec.Replayed, rec.Dropped

	err = srv2.Do(func(t sched.Task) error {
		res.FsckErrors = fsckMembers(t, srv2.Array)
		if err := verifyJournal(t, srv2, spec, j, crashAt, res); err != nil {
			return err
		}
		if spec.Namespace {
			verifyNamespace(t, srv2, spec, nj, res)
		}
		return nil
	})
	return res, err
}

// crashUnderRecovery runs the recovery with a second power cut armed
// and returns the battery the final recovery must start from: the
// merged one a cut inside the recovery hands back, or — when the
// recovery outran the cut — the original, which the final recovery
// replays again over finished state (the idempotence case).
func crashUnderRecovery(cfg Config, spec crashSpec) (*stack.Battery, error) {
	cfg.Fault = &device.FaultConfig{
		Seed: spec.Seed + 1, CutAfterIO: spec.RecoverCut, CutTearsWrite: true,
	}
	mid, err := Open(cfg)
	var rerr *RecoveryError
	if errors.As(err, &rerr) {
		return rerr.Battery, nil
	}
	if err != nil {
		return nil, fmt.Errorf("recovery under a second cut: %w", err)
	}
	mid.Close()
	return cfg.Recover, nil
}

// verifyJournal reads every journaled block back and classifies it.
func verifyJournal(t sched.Task, srv *Server, spec crashSpec, j *journal, crashAt time.Time, res *crashResult) error {
	return checkVersions(t, srv.Vol, spec.Files, func(f, b int, got byte) error {
		key := [2]int{f, b}
		j.mu.Lock()
		acked, issued, ackAt := j.acked[key], j.issued[key], j.ackAt[key]
		j.mu.Unlock()
		switch {
		case got > issued:
			return fmt.Errorf("f%d/b%d: version %d from the future (issued %d)", f, b, got, issued)
		case got < 1:
			return fmt.Errorf("f%d/b%d: durable baseline lost", f, b)
		case got < acked:
			res.LostAcked++
			res.LossWindow = max(res.LossWindow, crashAt.Sub(ackAt))
			if spec.Flush.Persistent {
				res.FsckErrors = append(res.FsckErrors, fmt.Sprintf(
					"policy %s lost acknowledged write f%d/b%d (have v%d, acked v%d)",
					spec.Flush.Name, f, b, got, acked))
			}
		}
		return nil
	})
}

// verifyNamespace checks every journaled namespace operation against
// the recovered tree. Acknowledged state must be exactly present: a
// created file exists with its full tagged body, a removed or
// renamed-away path stays absent. Paths the unacknowledged tail
// touched may land either way. Violations count as NamespaceLost and
// — under a persistent policy with the intent log on — as errors.
func verifyNamespace(t sched.Task, srv *Server, spec crashSpec, nj *nsJournal, res *crashResult) {
	nj.mu.Lock()
	ops := append([]nsOp(nil), nj.ops...)
	acked := nj.acked
	nj.mu.Unlock()

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

// repairSpec configures one crash-during-repair exercise: lose a
// member of a 3-wide redundant array, update the survivors degraded,
// then repair the member online with a power cut armed at an
// arbitrary device I/O of the repair itself.
type repairSpec struct {
	Dir       string
	Layout    string
	Placement string
	// StripeBlocks is the redundant chunk width (0 = default).
	StripeBlocks int
	// KillMember is the member that dies.
	KillMember int
	// CutAfterIO trips the power cut at the Nth device I/O of the
	// repair (0 = never: the control run, which must converge without
	// a crash).
	CutAfterIO int64
	Seed       int64
	// Supervised makes the repair the server's own: a hot spare is
	// attached and the supervisor runs, the member dies at the fault
	// seam (so the array self-isolates from live evidence), and
	// Members.MarkDead drives isolate → promote the spare → rebuild onto
	// it → scrub-verify, the spare's image adoption (the rename onto
	// the member path) included. Otherwise the operator kills the
	// member and RebuildMember rebuilds onto a fresh image.
	Supervised bool
}

// repairResult is what one exercise observed.
type repairResult struct {
	// Interrupted reports whether the power cut tripped mid-repair.
	Interrupted bool
	// RebuildErr carries the operator rebuild's error when it failed.
	RebuildErr string
	// Heal is the supervised repair's event: Err carries the repair's
	// failure when the cut interrupted it.
	Heal health.HealEvent
	// Scrub is the final full-array consistency scan: Mismatches and
	// Skipped must be zero on the converged array.
	Scrub volume.ScrubStats
	// FsckErrors holds post-convergence violations (must be empty).
	FsckErrors []string
}

// repairFiles sizes the repair dataset (crashFileBlocks blocks each).
const repairFiles = 4

// runRepairCrash drives the crash-during-repair cell: build a
// versioned dataset, lose a member, update the survivors degraded,
// then repair the member online with a power cut armed at an
// arbitrary repair I/O. Whatever the cut leaves behind — a
// half-copied replacement image, a half-rebuilt spare still at its
// pool path, an adopted member image mid-copy, a torn survivor
// checkpoint — recovery reopens (degraded if the repair had not
// completed), rebuilds again from scratch, and must converge to an
// fsck-clean, scrub-clean array holding exactly the acknowledged
// data. The rebuild's correctness argument makes this safe at ANY cut
// point: the replacement is write-only state, the survivors still
// hold every byte.
func runRepairCrash(spec repairSpec) (*repairResult, error) {
	cfg := Config{
		Path:         filepath.Join(spec.Dir, "repair.img"),
		Blocks:       2048,
		Volumes:      3,
		Placement:    spec.Placement,
		StripeBlocks: spec.StripeBlocks,
		CacheBlocks:  96,
		CacheShards:  1,
		SegBlocks:    64,
		Layout:       spec.Layout,
		Seed:         spec.Seed,
	}
	if spec.Supervised {
		cfg.Spares, cfg.SelfHeal = 1, true
		// The sweep drives the repair synchronously through the manual
		// override; an hour-long tick keeps the background Observe from
		// racing the cut arming.
		cfg.HealthInterval = time.Hour
		cfg.Fault = &device.FaultConfig{Seed: spec.Seed, CutTearsWrite: true}
	}
	srv, err := Open(cfg)
	if err != nil {
		return nil, err
	}

	// Versioned dataset: v1 everywhere, then — degraded — v2 over a
	// deterministic subset. Everything is acknowledged and synced, so
	// the dead member is genuinely stale, the armed cut counts repair
	// I/Os only, and recovery has nothing to replay but the repair's
	// own state.
	want := map[[2]int]byte{}
	if err := writeVersions(srv, repairFiles, 1, 1, want); err != nil {
		srv.Close()
		return nil, fmt.Errorf("repair baseline: %w", err)
	}
	if spec.Supervised {
		srv.Fault.Kill(spec.KillMember)
	} else if err := srv.Members.KillMember(spec.KillMember); err != nil {
		srv.Close()
		return nil, err
	}
	if err := writeVersions(srv, repairFiles, 2, 2, want); err != nil {
		srv.Close()
		return nil, fmt.Errorf("degraded update: %w", err)
	}

	// Arm the cut and run the repair to its end (success or the cut's
	// interruption — Members.MarkDead drives the heal inline).
	res := &repairResult{}
	plan := srv.Fault
	if spec.Supervised {
		plan.ArmCut(spec.CutAfterIO)
		if err := srv.Do(func(tk sched.Task) error { return srv.Members.MarkDead(tk, spec.KillMember) }); err != nil {
			srv.Close()
			return nil, fmt.Errorf("mark dead: %w", err)
		}
		if evs := srv.HealEvents(); len(evs) > 0 {
			res.Heal = evs[len(evs)-1]
		}
	} else {
		// The replacement's own driver, stood up mid-rebuild, bypasses
		// the plan — a torn replacement image is exactly the state the
		// recovery must shrug off.
		plan = device.NewFaultPlan(device.FaultConfig{
			Seed: spec.Seed, CutAfterIO: spec.CutAfterIO, CutTearsWrite: true,
		})
		plan.OnCut(srv.Cache.PowerOff)
		for _, drv := range srv.Members.Drivers {
			drv.SetInjector(plan)
		}
		if err := srv.Do(func(tk sched.Task) error { return srv.Members.RebuildMember(tk, spec.KillMember) }); err != nil {
			res.RebuildErr = err.Error()
		}
	}
	res.Interrupted = plan.HasCut()
	degraded := srv.Array.Degraded()

	// Power restored: the self-heal machinery stays off for the
	// converging pass — the question is whether the images recover.
	cfg.Fault, cfg.SelfHeal, cfg.Spares = nil, false, 0
	cfg.Recover = srv.Crash()
	if degraded {
		cfg.Dead = []int{spec.KillMember}
	}
	srv2, err := Open(cfg)
	if err != nil {
		return res, fmt.Errorf("recovery mount: %w", err)
	}
	defer srv2.Close()
	if srv2.Array.Degraded() {
		if err := srv2.Do(func(tk sched.Task) error { return srv2.Members.RebuildMember(tk, spec.KillMember) }); err != nil {
			return res, fmt.Errorf("converging rebuild: %w", err)
		}
	}

	// The converged array must be healthy, fsck-clean, scrub-clean and
	// hold exactly the acknowledged versions.
	err = srv2.Do(func(t sched.Task) error {
		res.FsckErrors = fsckMembers(t, srv2.Array)
		st, err := srv2.Array.Scrub(t, false)
		if err != nil {
			return err
		}
		res.Scrub = st
		if st.Mismatches > 0 || st.Skipped > 0 {
			res.FsckErrors = append(res.FsckErrors, fmt.Sprintf(
				"scrub after repair: %d mismatch(es), %d block(s) unverifiable", st.Mismatches, st.Skipped))
		}
		return checkVersions(t, srv2.Vol, repairFiles, func(f, b int, got byte) error {
			if w := want[[2]int{f, b}]; got != w {
				res.FsckErrors = append(res.FsckErrors, fmt.Sprintf("f%d/b%d: want v%d, have v%d", f, b, w, got))
			}
			return nil
		})
	})
	return res, err
}
