package stack

// One crash, one recovery for both kernels: a power cut leaves a
// Battery — what the battery-backed domain held — and Mount replays it
// onto a fresh front-end over the same arrays: layout recovery, the
// partial-parity records, the NVRAM intents and survivors, and a sync
// that makes the replayed state durable. The on-line server runs it
// as its recovery mount, the simulator right after its simulated power
// cut.

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fsys"
	"repro/internal/layout"
	"repro/internal/sched"
	"repro/internal/volume"
)

// Battery is everything the battery-backed domain held at a power
// cut: the cache's crash report (surviving dirty blocks, unretired
// intents) and each array's pending partial-parity records.
type Battery struct {
	cache.CrashReport
	// Parity holds one list per array, in the order the arrays were
	// read and are recovered: a record names no volume.
	Parity [][]volume.ParityRecord
}

// ReadBattery is the battery a power cut left: the cache's crash
// report and the pending parity records of arrays, in order.
func ReadBattery(cr *cache.CrashReport, arrays ...*volume.Array) *Battery {
	b := &Battery{CrashReport: *cr}
	for _, a := range arrays {
		b.Parity = append(b.Parity, a.PendingParity())
	}
	return b
}

// RecoveryReport is what a recovery did: the layouts' own repairs,
// the partial-parity records applied, and the NVRAM replay.
type RecoveryReport struct {
	layout.RecoveryStats
	ParityApplied int
	fsys.ReplayStats
}

// Mount brings arrays up on fs as volumes 1..n, in list order. A fresh
// set is formatted and mounted; an existing one is mounted or, with a
// battery to replay, recovered: each array's layout recovery, then its
// partial-parity records — they land before the survivor replay, so
// the replay's read-modify-writes fold a consistent parity forward —
// and, once all are up, the NVRAM replay and a sync that makes the
// replayed state durable. Only a recovery returns a report; it counts
// what was done so far when an error stops it.
func Mount(t sched.Task, fs *fsys.FS, fresh bool, b *Battery, arrays ...*volume.Array) (*RecoveryReport, error) {
	var r *RecoveryReport
	if b != nil && !fresh {
		r = &RecoveryReport{}
	}
	var err error
	for i, a := range arrays {
		switch {
		case fresh:
			if err = a.Format(t); err == nil {
				err = a.Mount(t)
			}
		case r != nil:
			var st layout.RecoveryStats
			st, err = a.Recover(t)
			r.RecoveryStats.Add(st)
		default:
			err = a.Mount(t)
		}
		if err == nil {
			_, err = fs.AddVolume(t, core.VolumeID(i+1), a)
		}
		if err != nil {
			return r, err
		}
		if r != nil && i < len(b.Parity) {
			n, err := a.ReplayParity(t, b.Parity[i])
			r.ParityApplied += n
			if err != nil {
				return r, fmt.Errorf("parity replay: %w", err)
			}
		}
	}
	if r == nil {
		return nil, nil
	}
	if r.ReplayStats, err = fs.ReplayNVRAM(t, b.Survivors, b.Intents); err != nil {
		return r, fmt.Errorf("NVRAM replay: %w", err)
	}
	return r, fs.SyncAll(t)
}

// MergeBatteries combines the battery a recovery started from with
// the one a power cut during that recovery left: the later survivor
// wins per block; the later intents, re-recorded by the interrupted
// replay, are renumbered after the earlier ones so the concatenation
// replays in order; and per array and parity column the earliest
// record wins — it was computed against consistent media, while the
// interrupted recovery's re-records may have read torn cells. The
// rest of the report (policy, loss counts) is the later cut's.
func MergeBatteries(b, later *Battery) *Battery {
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
	m.Parity = slices.Clone(b.Parity)
	for i, recs := range later.Parity {
		if i == len(m.Parity) {
			m.Parity = append(m.Parity, nil)
		}
		seen := map[[3]int64]bool{}
		for _, r := range m.Parity[i] {
			seen[column(r)] = true
		}
		for _, r := range recs {
			if !seen[column(r)] {
				m.Parity[i] = append(slices.Clip(m.Parity[i]), r)
			}
		}
	}
	return m
}
