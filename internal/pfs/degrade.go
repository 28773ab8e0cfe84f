package pfs

// Member loss on the live server. The kill, the online rebuild, the
// hot-spare pool and the self-heal supervisor are health.Members, the
// code the simulator runs too; what stays here is what is about
// files: a replacement member starts from a fresh image at the
// member's path, and a promoted spare's image takes that path over.
// All of it requires a redundant placement ("mirrored" or "parity");
// the volume manager refuses otherwise.

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/device"
	"repro/internal/health"
	"repro/internal/sched"
	"repro/internal/volume"
)

// images is the server's health.Media: one backing image per member
// and spare under Config.Path.
type images struct {
	k    sched.Kernel
	cfg  Config
	plan *device.FaultPlan
}

// Replacement opens a fresh image at member m's path; the old driver
// keeps its (now anonymous) file.
func (im images) Replacement(m int) (device.Driver, error) { return im.fresh(memberPath(im.cfg, m)) }

// fresh unlinks a stale image at path and opens a driver over a new,
// empty one.
func (im images) fresh(path, name string) (device.Driver, error) {
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("pfs: drop stale image %s: %w", path, err)
	}
	return openDriver(im.k, im.cfg, im.plan, path, name)
}

// Adopt renames spare j's image onto member m's path (the open
// descriptor follows the rename), so the next Open of this
// configuration finds the rebuilt member at the member path.
func (im images) Adopt(m, j int) error {
	vpath, _ := memberPath(im.cfg, m)
	spath, _ := sparePath(im.cfg, j)
	if err := os.Rename(spath, vpath); err != nil {
		return fmt.Errorf("pfs: adopt spare image for member %d: %w", m, err)
	}
	return nil
}

// KillMember declares array member m dead (see health.Members).
func (s *Server) KillMember(m int) error { return s.Members.KillMember(m) }

// RebuildMember replaces dead member m with a freshly formatted image
// and rebuilds its share online, against live traffic. Blocks until
// the rebuild completes; progress is visible through
// Array.RebuildProgress and the admin metrics.
func (s *Server) RebuildMember(m int) error {
	return s.Do(func(t sched.Task) error { return s.Members.RebuildMember(t, m) })
}

// HealEvents snapshots the supervised repairs so far, in order.
func (s *Server) HealEvents() []health.HealEvent { return s.Members.HealEvents() }

// stopSupervisor halts the supervisor task (if any) and waits for an
// in-flight repair to finish.
func (s *Server) stopSupervisor() {
	_ = s.Do(func(t sched.Task) error { s.Members.Stop(t); return nil })
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

// healthDetail renders the /healthz supplement: per-member verdicts,
// degraded/maintenance state, and the spare pool.
func (s *Server) healthDetail() string {
	var b strings.Builder
	for _, ms := range s.Members.Monitor.States() {
		fmt.Fprintf(&b, "member %s: %s\n", ms.Name, ms.Verdict)
	}
	if s.Array.Degraded() {
		fmt.Fprintf(&b, "degraded: member %d dead\n", s.Array.DeadMember())
	}
	if mnt := s.Array.Maintenance(); mnt != "" {
		fmt.Fprintf(&b, "maintenance: %s\n", mnt)
	}
	fmt.Fprintf(&b, "spares: %d idle\n", s.Array.SpareCount())
	return b.String()
}
