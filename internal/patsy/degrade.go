package patsy

// Member-loss operations on a simulated array: the virtual-kernel
// twins of pfs.Server.KillMember / RebuildMember, so degraded and
// rebuilding cells can be measured deterministically.

import (
	"fmt"

	"repro/internal/sched"
	"repro/internal/stack"
)

// KillMember declares array member m dead (array mode only): the
// array stops routing to it and serves its share from redundancy,
// and the fault plan (when installed) makes the member's driver
// reject every request — the full member-loss fault.
func (s *System) KillMember(m int) error {
	if s.Cfg.ArrayVolumes < 1 {
		return fmt.Errorf("patsy: kill member: not in array mode")
	}
	if err := s.Volumes[0].KillMember(m); err != nil {
		return err
	}
	if s.Fault != nil {
		s.Fault.Kill(m)
	}
	return nil
}

// RebuildMember rebuilds dead member m online onto a fresh sub-layout
// over the member's disk stack — the same simulated drive standing in
// for a swapped replacement, so the rebuild's seeks and transfers are
// costed like any other traffic. Blocks until the copy completes.
func (s *System) RebuildMember(t sched.Task, m int) error {
	if s.Cfg.ArrayVolumes < 1 {
		return fmt.Errorf("patsy: rebuild member: not in array mode")
	}
	if s.Fault != nil {
		s.Fault.Revive()
	}
	part := s.partition(m, 0, s.Drivers[m].CapacityBlocks())
	sub, err := s.stackConfig().Member(s.K, stack.MemberName("vol1", s.Cfg.ArrayVolumes, m), part)
	if err != nil {
		return err
	}
	return s.Volumes[0].Rebuild(t, sub)
}
