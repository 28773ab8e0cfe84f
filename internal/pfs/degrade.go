package pfs

// Member-loss operations on the live server: declare an array member
// dead (the operator's trigger; the fault seam and the volume
// manager's own lazy detection cover the involuntary case), rebuild a
// replacement online against live traffic, and scrub the redundancy
// invariant. All of it requires a redundant placement ("mirrored" or
// "parity"); the volume manager refuses otherwise.

import (
	"fmt"
	"os"

	"repro/internal/sched"
	"repro/internal/volume"
)

// KillMember declares array member m dead: the volume manager stops
// routing to it and serves its share from redundancy, and the fault
// plan (when installed) makes the member's driver reject every
// request with ErrDiskDead — the full member-loss fault, hardware
// seam included.
func (s *Server) KillMember(m int) error {
	if err := s.Array.KillMember(m); err != nil {
		return err
	}
	if s.Fault != nil {
		s.Fault.Kill(m)
	}
	return nil
}

// RebuildMember replaces dead member m with a freshly formatted image
// and rebuilds its share online, against live traffic: reads and
// writes keep flowing (degraded) while the volume manager copies the
// member's content back from the survivors. Blocks until the rebuild
// completes; progress is visible through Array.RebuildProgress and
// the admin metrics. The dead member's old driver is retired (its
// unlinked image is released with the server).
func (s *Server) RebuildMember(m int) error {
	if !s.Array.Degraded() || s.Array.DeadMember() != m {
		return fmt.Errorf("pfs: member %d is not the dead member (dead: %d)", m, s.Array.DeadMember())
	}
	// Unlink the stale image first: the old driver keeps its (now
	// anonymous) file; the replacement starts from an empty one.
	path, name := memberPath(s.cfg, m)
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("pfs: drop stale image of member %d: %w", m, err)
	}
	drv, err := openDriver(s.K, s.cfg, s.Fault, path, name)
	if err != nil {
		return err
	}
	sub, err := s.stack.Member(s.K, name, s.stack.Partition(drv, m, 0, s.cfg.Blocks))
	if err != nil {
		drv.Close()
		return err
	}
	if s.Fault != nil {
		// Let I/O reach the replacement: the plan still addresses the
		// member by index, and the rebuild is about to write there.
		s.Fault.Revive()
	}
	if err := s.Do(func(t sched.Task) error { return s.Array.Rebuild(t, sub) }); err != nil {
		drv.Close()
		return err
	}
	s.drvMu.Lock()
	s.retired = append(s.retired, s.Drivers[m])
	s.Drivers[m] = drv
	s.drvMu.Unlock()
	return nil
}

// Scrub walks the array's redundancy invariant online (mirror copies
// agree, parity equals the XOR of its stripe) and, with repair set,
// rewrites whichever side the policy trusts. See volume.Array.Scrub.
func (s *Server) Scrub(repair bool) (volume.ScrubStats, error) {
	var st volume.ScrubStats
	err := s.Do(func(t sched.Task) error {
		var err error
		st, err = s.Array.Scrub(t, repair)
		return err
	})
	return st, err
}
