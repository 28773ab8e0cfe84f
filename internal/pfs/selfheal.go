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
// The supervisor samples evidence on a plain goroutine (the monitor
// holds only plain mutexes); only the rebuild and the verify scrub
// run on kernel tasks, exactly like their manual counterparts.

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
	// KilledAt is when the fault seam killed the member (zero when
	// the death had no injected kill, e.g. a manual override).
	KilledAt time.Time
	// DetectedAt is when the monitor confirmed the death.
	DetectedAt time.Time
	// RebuiltAt / ScrubbedAt mark the rebuild and the post-rebuild
	// verify completing (zero on refusal).
	RebuiltAt, ScrubbedAt time.Time
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
// and runs the repair loop. Called from Open (Config.SelfHeal) after
// the mount succeeded.
func (s *Server) startSupervisor() {
	srcs := make([]health.Source, len(s.Drivers))
	for i, drv := range s.Drivers {
		srcs[i] = driverSource{name: fmt.Sprintf("d%d", i), ds: drv.DriverStats()}
	}
	s.Monitor = health.NewMonitor(srcs)
	s.Monitor.OnDead(func(m int) { s.heal(m) })
	if s.Fault != nil {
		// Timestamp the injected kill so HealEvents can report true
		// detection latency (the OnKill list is one-shot; promoteSpare
		// re-arms it after each Revive).
		s.Fault.OnKill(func(m int) { s.noteKill(m) })
	}
	interval := s.cfg.HealthInterval
	if interval <= 0 {
		interval = defaultHealthInterval
	}
	s.healStop = make(chan struct{})
	s.healDone = make(chan struct{})
	go func() {
		defer close(s.healDone)
		// A member declared dead before the mount (Config.Dead) never
		// produces evidence — the array routes around it — so adopt the
		// array's verdict directly.
		if dm := s.Array.DeadMember(); dm >= 0 {
			s.Monitor.MarkDead(dm)
		}
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-s.healStop:
				return
			case <-tick.C:
				// Confirmed deaths heal inline via the OnDead callback.
				s.Monitor.Observe()
			}
		}
	}()
}

// stopSupervisor halts the repair loop and waits for an in-flight
// repair to finish (or fail — a power cut makes its I/O fail fast).
func (s *Server) stopSupervisor() {
	if s.healStop == nil {
		return
	}
	s.healStopOnce.Do(func() { close(s.healStop) })
	<-s.healDone
}

func (s *Server) noteKill(m int) {
	s.evMu.Lock()
	if s.killTimes == nil {
		s.killTimes = make(map[int]time.Time)
	}
	if _, ok := s.killTimes[m]; !ok {
		s.killTimes[m] = time.Now()
	}
	s.evMu.Unlock()
}

func (s *Server) takeKillTime(m int) (time.Time, bool) {
	s.evMu.Lock()
	defer s.evMu.Unlock()
	t, ok := s.killTimes[m]
	if ok {
		delete(s.killTimes, m)
	}
	return t, ok
}

func (s *Server) pushHealEvent(ev HealEvent) {
	s.evMu.Lock()
	s.healEvents = append(s.healEvents, ev)
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
	s.Monitor.MarkDead(m)
	return nil
}

// heal is one supervised repair pass, serialized by healMu (a second
// confirmed death queues behind the first repair and is then judged
// on its own merits).
func (s *Server) heal(m int) {
	s.healMu.Lock()
	defer s.healMu.Unlock()
	ev := HealEvent{Member: m, Spare: -1, DetectedAt: time.Now()}
	if kt, ok := s.takeKillTime(m); ok {
		ev.KilledAt = kt
		ev.DetectMS = float64(ev.DetectedAt.Sub(kt)) / float64(time.Millisecond)
	}
	// Isolate. The array usually beat us here (it kills the member on
	// the first ErrDiskDead from live traffic); a refusal with some
	// OTHER member dead is the second fault — refuse loudly, keep
	// serving degraded.
	if err := s.KillMember(m); err != nil && s.Array.DeadMember() != m {
		ev.Err = fmt.Sprintf("isolate: %v", err)
		s.pushHealEvent(ev)
		return
	}
	slot, err := s.promoteSpare(m)
	if err != nil {
		ev.Err = fmt.Sprintf("promote: %v", err)
		s.pushHealEvent(ev)
		return
	}
	ev.Spare = slot
	ev.RebuiltAt = time.Now()
	st, err := s.Scrub(false)
	if err != nil {
		ev.Err = fmt.Sprintf("verify: %v", err)
		s.pushHealEvent(ev)
		return
	}
	ev.ScrubMismatches = st.Mismatches
	ev.ScrubbedAt = time.Now()
	base := ev.KilledAt
	if base.IsZero() {
		base = ev.DetectedAt
	}
	ev.MTTRMS = float64(ev.ScrubbedAt.Sub(base)) / float64(time.Millisecond)
	s.pushHealEvent(ev)
}

// promoteSpare rebuilds dead member m onto the pool's next spare and
// moves the member's identity — backing image name, driver slot,
// monitor source — over to it.
func (s *Server) promoteSpare(m int) (int, error) {
	type res struct {
		slot int
		err  error
	}
	resc := make(chan res, 1)
	s.K.Go("pfs.selfheal", func(t sched.Task) {
		slot, err := s.Array.PromoteSpare(t)
		resc <- res{slot, err}
	})
	r := <-resc
	if r.err != nil {
		return -1, r.err
	}
	// The spare's image takes over the member's name (the open
	// descriptor follows the rename), so the next Open of this
	// configuration finds the rebuilt member at the member path.
	vpath, _ := memberPath(s.cfg, m)
	spath, _ := sparePath(s.cfg, r.slot)
	if err := os.Rename(spath, vpath); err != nil {
		return r.slot, fmt.Errorf("pfs: adopt spare image for member %d: %w", m, err)
	}
	if s.Fault != nil {
		s.Fault.Revive()
		s.Fault.OnKill(func(mm int) { s.noteKill(mm) })
	}
	s.drvMu.Lock()
	drv := s.spareDrvs[r.slot]
	s.spareDrvs[r.slot] = nil
	s.retired = append(s.retired, s.Drivers[m])
	s.Drivers[m] = drv
	s.drvMu.Unlock()
	if s.Monitor != nil {
		s.Monitor.Replace(m, driverSource{name: fmt.Sprintf("d%d", m), ds: drv.DriverStats()})
	}
	return r.slot, nil
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
