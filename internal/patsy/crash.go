package patsy

import (
	"time"

	"repro/internal/sched"
	"repro/internal/trace"
)

// crashTask is the simulator's power cut: at Config.CrashAt it halts
// the replay, trips the fault plan (nothing reaches the media
// afterwards), freezes the cache, and measures the crash exposure —
// dirty blocks lost vs. NVRAM-preserved, the loss window, and the
// bytes sitting in the drives' volatile write caches. With
// CrashRecover it then plays the recovery inside the same simulation
// so the study gets deterministic virtual-time recovery costs: every
// layout's remount/roll-forward scan, the NVRAM replay through the
// layouts, and the closing checkpoint.
func (s *System) crashTask(t sched.Task, rep *trace.Replayer) *CrashInfo {
	t.SleepUntil(sched.Time(s.Cfg.CrashAt))
	rep.Halt()
	if s.Fault != nil {
		s.Fault.Cut()
	}
	s.Cache.PowerOff()
	// Give in-flight operations one simulated second to drain into
	// their (injected) completions before the state is read.
	t.Sleep(time.Second)

	cr := s.Cache.Crash(t)
	info := &CrashInfo{
		At:             time.Duration(s.K.Now()),
		Policy:         cr.Policy,
		Persistent:     cr.Persistent,
		SurvivorBlocks: len(cr.Survivors),
		LostBlocks:     cr.LostBlocks,
		LossWindow:     cr.LossWindow,
	}
	if log := s.Cache.Intents(); log != nil {
		info.Namespace = &NamespaceCrashInfo{
			Ops:             log.Total(),
			SurvivorIntents: len(cr.Intents),
			LostIntents:     cr.LostIntents,
			LossWindow:      cr.IntentLossWindow,
		}
	}
	for _, d := range s.Disks {
		info.DiskVolatileBytes += d.VolatileBytes()
	}
	if !s.Cfg.CrashRecover {
		return info
	}

	// Power restored: recover on the same (simulated) stack. The
	// in-memory layout state doubles as the disk image, so recovery
	// here charges the I/O a real remount performs.
	if s.Fault != nil {
		s.Fault.Restore()
	}
	start := s.K.Now()
	for _, vol := range s.Volumes {
		if _, err := vol.Recover(t); err != nil {
			return info
		}
	}
	st, err := s.FS.ReplayNVRAM(t, cr.Survivors, cr.Intents)
	info.ReplayedBlocks, info.DroppedBlocks = st.Replayed, st.Dropped
	if info.Namespace != nil {
		info.Namespace.Replayed = st.IntentsApplied
		info.Namespace.Noop = st.IntentsNoop
		info.Namespace.Dropped = st.IntentsDropped
	}
	if err != nil {
		return info
	}
	for _, vol := range s.Volumes {
		if err := vol.Sync(t); err != nil {
			return info
		}
	}
	info.Recovered = true
	info.RecoveryTime = s.K.Now().Sub(start)
	return info
}
