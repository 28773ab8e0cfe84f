package pfs

// The self-healing supervisor: the piece that closes the
// detect → isolate → rebuild → verify loop with no operator in it.
//
//	device evidence ──▶ health.Monitor ──▶ confirmed death
//	                                            │
//	      ┌─────────────────────────────────────┘
//	      ▼
//	KillMember (usually a no-op: the array killed itself on the
//	first ErrDiskDead) ──▶ PromoteSpare (rebuild onto the pool's
//	next idle stack) ──▶ Scrub (certify the invariant) ──▶ healthy
//
// Refusals — empty pool, a second fault, a concurrent maintenance
// pass — leave the array serving degraded and are recorded as loud
// HealEvents instead of being retried blindly.
//
// The supervisor is a kernel task: it waits HealthInterval on the
// kernel clock between evidence samples, stamps its HealEvents with
// the kernel's Now, and runs each repair on the task that confirmed
// the death (its own, or MarkMemberDead's) — so nothing here depends
// on which kernel the server runs on.

import (
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/device"
	"repro/internal/health"
	"repro/internal/sched"
)

// defaultHealthInterval paces the supervisor's evidence sampling.
const defaultHealthInterval = 25 * time.Millisecond

// HealEvent records one supervised repair pass over a confirmed
// member death.
type HealEvent struct {
	// Member is the member that died; Spare the pool slot consumed
	// (-1 when the promotion was refused or failed).
	Member, Spare int
	// KilledAt is the kernel time the fault seam killed the member
	// (zero when the death had no injected kill, e.g. a manual
	// override).
	KilledAt sched.Time
	// DetectedAt is when the monitor confirmed the death.
	DetectedAt sched.Time
	// RebuiltAt / ScrubbedAt mark the rebuild and the post-rebuild
	// verify completing (zero on refusal).
	RebuiltAt, ScrubbedAt sched.Time
	// DetectMS is kill → confirmation; MTTRMS is kill (or, without a
	// kill time, confirmation) → scrubbed clean.
	DetectMS, MTTRMS float64
	// ScrubMismatches is the verify scrub's violation count (0 on a
	// clean repair).
	ScrubMismatches int64
	// Err records why the repair stopped ("" on success).
	Err string
}

// driverSource adapts a member driver's statistics to health.Source.
type driverSource struct {
	name string
	ds   *device.DriverStats
}

func (s driverSource) Name() string { return s.name }
func (s driverSource) HealthEvidence() health.Evidence {
	return health.Evidence{
		Errors:     s.ds.IOErrors.Value(),
		DeadErrors: s.ds.DeadErrors.Value(),
		SlowIOs:    s.ds.SlowIOs.Value(),
		Consec:     s.ds.ConsecutiveErrors(),
	}
}

// startSupervisor builds the health monitor over the member drivers
// and starts the supervisor task. Called from Open (Config.SelfHeal)
// after the mount succeeded.
func (s *Server) startSupervisor() {
	srcs := make([]health.Source, len(s.Drivers))
	for i, drv := range s.Drivers {
		srcs[i] = driverSource{name: fmt.Sprintf("d%d", i), ds: drv.DriverStats()}
	}
	s.Monitor = health.NewMonitor(srcs)
	s.Monitor.OnDead(func(m int) { s.heal(s.healer, m) })
	s.killTimes = make(map[int]sched.Time)
	if s.Fault != nil {
		// Timestamp the injected kill so HealEvents can report true
		// detection latency (the OnKill list is one-shot; promoteSpare
		// re-arms it after each Revive).
		s.Fault.OnKill(s.noteKill)
	}
	interval := s.cfg.HealthInterval
	if interval <= 0 {
		interval = defaultHealthInterval
	}
	s.healMu = s.K.NewMutex("pfs.selfheal")
	s.healStop = s.K.NewEvent("pfs.selfheal.stop")
	s.healDone = s.K.NewEvent("pfs.selfheal.done")
	s.K.Go("pfs.selfheal", func(t sched.Task) {
		// A member declared dead before the mount (Config.Dead) never
		// produces evidence — the array routes around it — so adopt the
		// array's verdict directly. Read it under healMu: a member a
		// repair in flight has isolated is not dead once it is done.
		s.judge(t, func() {
			if dm := s.Array.DeadMember(); dm >= 0 {
				s.Monitor.MarkDead(dm)
			}
		})
		// The wait is the sampling interval; a stop cuts it short.
		for !s.healStop.WaitTimeout(t, interval) {
			s.judge(t, func() { s.Monitor.Observe() })
		}
		s.healDone.Signal()
	})
}

// judge runs a monitor call that may confirm deaths on task t. The
// monitor fires its OnDead callbacks on the calling task, and judge
// holds healMu throughout, so a confirmed death is repaired on t and
// repairs run one at a time: a second confirmed death waits for the
// first repair and is then judged on its own merits.
func (s *Server) judge(t sched.Task, call func()) {
	s.healMu.Lock(t)
	s.healer = t
	call()
	s.healMu.Unlock(t)
}

// stopSupervisor halts the supervisor task and waits for an in-flight
// repair to finish (or fail — a power cut makes its I/O fail fast).
func (s *Server) stopSupervisor() {
	if s.Monitor == nil {
		return
	}
	s.healStop.Signal()
	_ = s.Do(func(t sched.Task) error {
		s.healDone.Wait(t)
		s.healDone.Signal() // a later stop finds the task gone too
		return nil
	})
}

func (s *Server) noteKill(m int) {
	s.evMu.Lock()
	if _, ok := s.killTimes[m]; !ok {
		s.killTimes[m] = s.K.Now()
	}
	s.evMu.Unlock()
}

// HealEvents snapshots the supervised repairs so far, in order.
func (s *Server) HealEvents() []HealEvent {
	s.evMu.Lock()
	defer s.evMu.Unlock()
	return append([]HealEvent(nil), s.healEvents...)
}

// MarkMemberDead is the manual override: it forces the monitor's
// verdict for member m to Dead, which triggers the same supervised
// repair as an evidence-confirmed death (and blocks until it
// completes or is refused). Without a supervisor it degrades to the
// plain KillMember.
func (s *Server) MarkMemberDead(m int) error {
	if s.Monitor == nil {
		return s.KillMember(m)
	}
	if m < 0 || m >= s.Monitor.Members() {
		return fmt.Errorf("pfs: mark member %d dead of %d", m, s.Monitor.Members())
	}
	return s.Do(func(t sched.Task) error {
		s.judge(t, func() { s.Monitor.MarkDead(m) })
		return nil
	})
}

// heal is one supervised repair pass over member m, recorded as a
// HealEvent whether it succeeds or stops.
func (s *Server) heal(t sched.Task, m int) {
	ev := HealEvent{Member: m, Spare: -1, DetectedAt: s.K.Now()}
	s.evMu.Lock()
	if kt, ok := s.killTimes[m]; ok {
		delete(s.killTimes, m)
		ev.KilledAt, ev.DetectMS = kt, msBetween(kt, ev.DetectedAt)
	}
	s.evMu.Unlock()
	ev.Err = s.repair(t, m, &ev)
	s.evMu.Lock()
	s.healEvents = append(s.healEvents, ev)
	s.evMu.Unlock()
}

// repair isolates member m, promotes a spare in its place and
// verifies the array, filling in ev; it returns why it stopped ("" on
// success).
func (s *Server) repair(t sched.Task, m int, ev *HealEvent) string {
	// The array usually isolated the member first (it kills it on the
	// first ErrDiskDead from live traffic); a refusal with some OTHER
	// member dead is the second fault — refuse loudly, keep serving
	// degraded.
	if err := s.KillMember(m); err != nil && s.Array.DeadMember() != m {
		return fmt.Sprintf("isolate: %v", err)
	}
	slot, err := s.promoteSpare(t, m)
	if err != nil {
		return fmt.Sprintf("promote: %v", err)
	}
	ev.Spare, ev.RebuiltAt = slot, s.K.Now()
	st, err := s.Array.Scrub(t, false)
	if err != nil {
		return fmt.Sprintf("verify: %v", err)
	}
	ev.ScrubMismatches, ev.ScrubbedAt = st.Mismatches, s.K.Now()
	base := ev.KilledAt
	if base == 0 {
		base = ev.DetectedAt
	}
	ev.MTTRMS = msBetween(base, ev.ScrubbedAt)
	return ""
}

// msBetween is the span from a to b in milliseconds.
func msBetween(a, b sched.Time) float64 { return float64(b.Sub(a)) / float64(time.Millisecond) }

// promoteSpare rebuilds dead member m onto the pool's next spare and
// moves the member's identity — backing image name, driver slot,
// monitor source — over to it.
func (s *Server) promoteSpare(t sched.Task, m int) (int, error) {
	slot, err := s.Array.PromoteSpare(t)
	if err != nil {
		return -1, err
	}
	// The spare's image takes over the member's name (the open
	// descriptor follows the rename), so the next Open of this
	// configuration finds the rebuilt member at the member path.
	vpath, _ := memberPath(s.cfg, m)
	spath, _ := sparePath(s.cfg, slot)
	if err := os.Rename(spath, vpath); err != nil {
		return slot, fmt.Errorf("pfs: adopt spare image for member %d: %w", m, err)
	}
	if s.Fault != nil {
		s.Fault.Revive()
		s.Fault.OnKill(s.noteKill)
	}
	s.drvMu.Lock()
	drv := s.spareDrvs[slot]
	s.spareDrvs[slot] = nil
	s.retired = append(s.retired, s.Drivers[m])
	s.Drivers[m] = drv
	s.drvMu.Unlock()
	s.Monitor.Replace(m, driverSource{name: fmt.Sprintf("d%d", m), ds: drv.DriverStats()})
	return slot, nil
}

// healthDetail renders the /healthz supplement: per-member verdicts,
// degraded/maintenance state, and the spare pool.
func (s *Server) healthDetail() string {
	var b strings.Builder
	for _, ms := range s.Monitor.States() {
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
