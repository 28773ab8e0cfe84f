package patsy

import (
	"fmt"
	"time"

	"repro/internal/fsys"
	"repro/internal/sched"
	"repro/internal/stack"
	"repro/internal/trace"
)

// crashTask is the simulator's power cut: at Config.CrashAt it halts
// the replay, trips the fault plan (nothing reaches the media
// afterwards), freezes the cache, and measures the crash exposure —
// dirty blocks lost vs. NVRAM-preserved, the loss window, and the
// bytes sitting in the drives' volatile write caches. With
// CrashRecover it then reboots inside the same simulation, so the
// study gets deterministic virtual-time recovery costs: a fresh
// front-end over the same arrays runs the server's recovery mount
// (stack.Mount) from the battery, and the front-end it recovered onto
// is returned. The pre-crash front-end stays powered off; Report reads
// the replay's counters from it.
func (s *System) crashTask(t sched.Task, rep *trace.Replayer) (*CrashInfo, *fsys.FS, error) {
	t.SleepUntil(sched.Time(s.Cfg.CrashAt))
	rep.Halt()
	if s.Fault != nil {
		s.Fault.Cut()
	}
	s.Cache.PowerOff()
	// Give in-flight operations one simulated second to drain into
	// their (injected) completions before the state is read.
	t.Sleep(time.Second)

	b := stack.ReadBattery(s.Cache.Crash(t), s.Volumes...)
	info := &CrashInfo{
		At:             time.Duration(s.K.Now()),
		Policy:         b.Policy,
		Persistent:     b.Persistent,
		SurvivorBlocks: len(b.Survivors),
		LostBlocks:     b.LostBlocks,
		LossWindow:     b.LossWindow,
	}
	if log := s.Cache.Intents(); log != nil {
		info.Namespace = &NamespaceCrashInfo{
			Ops:             log.Total(),
			SurvivorIntents: len(b.Intents),
			LostIntents:     b.LostIntents,
			LossWindow:      b.IntentLossWindow,
		}
	}
	for _, d := range s.Disks {
		info.DiskVolatileBytes += d.VolatileBytes()
	}
	if !s.Cfg.CrashRecover {
		return info, nil, nil
	}
	// Power restored: the arrays' in-memory layout state doubles as the
	// disk image, so the recovery charges the I/O a real remount
	// performs.
	if s.Fault != nil {
		s.Fault.Restore()
	}
	fs, _ := s.frontEnd()
	r, err := stack.Mount(t, fs, false, b, s.Volumes...)
	if err != nil {
		return nil, nil, fmt.Errorf("patsy: recovery: %w", err)
	}
	info.Recovered = true
	info.RecoveryTime = time.Duration(s.K.Now()) - info.At
	info.ReplayedBlocks, info.DroppedBlocks = r.Replayed, r.Dropped
	if ns := info.Namespace; ns != nil {
		ns.Replayed, ns.Noop, ns.Dropped = r.IntentsApplied, r.IntentsNoop, r.IntentsDropped
	}
	return info, fs, nil
}
