package pfs

// One crash, one recovery: Server.Crash hands back everything the
// battery-backed domain held at the cut as one Battery, and Open with
// Config.Recover set replays it — layout recovery, the partial-parity
// records, the NVRAM intents and survivors, and a sync that makes the
// replayed state durable. A battery is retired only by that sync: a
// recovery that fails after the cache is up (a second power cut) is
// torn down as a crash itself and hands back the merged battery.

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fsys"
	"repro/internal/layout"
	"repro/internal/sched"
	"repro/internal/volume"
)

// Battery is everything the battery-backed domain held at a power
// cut: the cache's crash report (surviving dirty blocks, unretired
// intents) and the array's pending partial-parity records.
type Battery struct {
	cache.CrashReport
	Parity []volume.ParityRecord
}

// RecoveryReport is what a recovery mount did: the layouts' own
// repairs, the partial-parity records applied, and the NVRAM replay.
type RecoveryReport struct {
	layout.RecoveryStats
	ParityApplied int
	fsys.ReplayStats
}

// RecoveryError is a recovery mount that failed. The half-open server
// was torn down as a crash; Battery is what the domain holds now — the
// battery the recovery started from merged with the one its own crash
// left — and the next recovery must start from it.
type RecoveryError struct {
	Battery *Battery
	Err     error
}

func (e *RecoveryError) Error() string { return "pfs: recovery: " + e.Err.Error() }
func (e *RecoveryError) Unwrap() error { return e.Err }

// mount brings the volume up on a kernel task: a fresh image set is
// formatted, an existing one mounted, or — with a battery to replay —
// recovered, replayed and synced.
func (s *Server) mount(t sched.Task, fresh bool) error {
	b := s.cfg.Recover
	var err error
	switch {
	case fresh:
		if err = s.Array.Format(t); err == nil {
			err = s.Array.Mount(t)
		}
	case b != nil:
		s.Recovery = &RecoveryReport{}
		s.Recovery.RecoveryStats, err = s.Array.Recover(t)
	default:
		err = s.Array.Mount(t)
	}
	if err != nil {
		return err
	}
	if s.Vol, err = s.FS.AddVolume(t, 1, s.Array); err != nil || s.Recovery == nil {
		return err
	}
	// The parity records land before the survivor replay: they
	// re-establish the degraded columns' parity, so the replay's
	// read-modify-writes fold a consistent parity forward.
	r := s.Recovery
	if r.ParityApplied, err = s.Array.ReplayParity(t, b.Parity); err != nil {
		return fmt.Errorf("parity replay: %w", err)
	}
	if r.ReplayStats, err = s.FS.ReplayNVRAM(t, b.Survivors, b.Intents); err != nil {
		return fmt.Errorf("NVRAM replay: %w", err)
	}
	if err = s.FS.SyncAll(t); err == nil && s.Fault != nil && s.Fault.HasCut() {
		// The cut tripped on a background write after the sync's last
		// I/O: the power is out all the same, so the battery stays.
		err = device.ErrPowerCut
	}
	return err
}

// mergeBatteries combines the battery a recovery started from with
// the one a power cut during that recovery left: the later survivor
// wins per block; the later intents, re-recorded by the interrupted
// replay, are renumbered after the earlier ones so the concatenation
// replays in order; and per parity column the earliest record wins —
// it was computed against consistent media, while the interrupted
// recovery's re-records may have read torn cells. The rest of the
// report (policy, loss counts) is the later cut's.
func mergeBatteries(b, later *Battery) *Battery {
	m := &Battery{CrashReport: later.CrashReport}
	byKey := map[core.BlockKey]cache.Survivor{}
	for _, s := range append(slices.Clone(b.Survivors), later.Survivors...) {
		byKey[s.Key] = s
	}
	m.Survivors = make([]cache.Survivor, 0, len(byKey))
	for _, s := range byKey {
		m.Survivors = append(m.Survivors, s)
	}
	slices.SortFunc(m.Survivors, func(x, y cache.Survivor) int {
		return cmp.Or(cmp.Compare(x.Key.Vol, y.Key.Vol), cmp.Compare(x.Key.File, y.Key.File), cmp.Compare(x.Key.Blk, y.Key.Blk))
	})
	var base uint64
	for _, it := range b.Intents {
		base = max(base, it.Seq)
	}
	m.Intents = slices.Clone(b.Intents)
	for _, it := range later.Intents {
		it.Seq += base
		m.Intents = append(m.Intents, it)
	}
	column := func(r volume.ParityRecord) [3]int64 { return [3]int64{int64(r.File), r.Stripe, r.Offset} }
	seen := map[[3]int64]bool{}
	m.Parity = slices.Clone(b.Parity)
	for _, r := range b.Parity {
		seen[column(r)] = true
	}
	for _, r := range later.Parity {
		if !seen[column(r)] {
			m.Parity = append(m.Parity, r)
		}
	}
	return m
}
