package health

// Member loss, once for both kernels: an array's member drivers and
// what happens when one dies — the kill, the manual rebuild onto a
// replacement drive, the hot-spare pool, and the self-heal supervisor
// that closes the detect → isolate → rebuild → verify loop with no
// operator in it.
//
//	device evidence ──▶ Monitor ──▶ confirmed death
//	                                      │
//	      ┌───────────────────────────────┘
//	      ▼
//	KillMember (usually a no-op: the array killed itself on the
//	first ErrDiskDead) ──▶ PromoteSpare (rebuild onto the pool's
//	next idle stack) ──▶ Scrub (certify the invariant) ──▶ healthy
//
// Refusals — empty pool, a second fault, a concurrent maintenance
// pass — leave the array serving degraded and are recorded as loud
// HealEvents instead of being retried blindly.
//
// Every blocking step runs on the caller's kernel task and every time
// is the kernel's Now, so the on-line server (real kernel, image
// files) and the simulator (virtual kernel, disk models) run this one
// code; what differs between them is their Media.

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/device"
	"repro/internal/layout"
	"repro/internal/sched"
	"repro/internal/stack"
	"repro/internal/volume"
)

// defaultInterval paces the supervisor's evidence sampling.
const defaultInterval = 25 * time.Millisecond

// Media is the hardware side of member loss: the part the server
// does with image files and the simulator with disk models.
type Media interface {
	// Replacement returns the drive a manual rebuild of dead member m
	// writes to.
	Replacement(m int) (device.Driver, error)
	// Adopt hands spare slot j's medium over to member m once the
	// spare has been rebuilt in its place.
	Adopt(m, j int) error
}

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

// Members is one redundant array's member drives and their loss.
type Members struct {
	K     sched.Kernel
	Array *volume.Array
	// Stack builds replacement and spare member layouts, each a
	// Blocks-block partition of its drive, named after the array's
	// Name.
	Stack  stack.Config
	Name   string
	Blocks int64
	// Fault is the fault plan on every drive (nil without one).
	Fault *device.FaultPlan
	Media Media
	// Drivers are the member drivers, in member order; a rebuild or
	// a promotion swaps a slot under drvMu.
	Drivers []device.Driver
	// Monitor drives the supervisor (nil until Supervise).
	Monitor *Monitor

	drvMu   sync.Mutex
	spares  []device.Driver // by pool slot; nil once promoted
	retired []device.Driver // replaced members' drivers

	healMu    sched.Mutex // serializes monitor judgments and repairs
	healStop  sched.Event // asks the supervisor task to exit
	healDone  sched.Event // the supervisor task has exited
	evMu      sync.Mutex
	events    []HealEvent
	killTimes map[int]sched.Time
}

// member builds a member layout named name over drv at disk address
// disk.
func (ms *Members) member(drv device.Driver, disk int, name string) (layout.Layout, error) {
	return ms.Stack.Member(ms.K, name, ms.Stack.Partition(drv, disk, 0, ms.Blocks))
}

// AddSpare builds an idle member stack over drv and attaches it to the
// array's hot-spare pool. A spare's partition claims a disk address
// beyond the array (width+j), so the fault plan's member addressing
// never confuses a spare with the member it replaces.
func (ms *Members) AddSpare(drv device.Driver) error {
	ms.drvMu.Lock()
	defer ms.drvMu.Unlock()
	j := len(ms.spares)
	sub, err := ms.member(drv, len(ms.Drivers)+j, fmt.Sprintf("%s.s%d", ms.Name, j))
	if err != nil {
		return err
	}
	ms.Array.AttachSpare(sub)
	ms.spares = append(ms.spares, drv)
	return nil
}

// KillMember declares member m dead: the array stops routing to it
// and serves its share from redundancy, and the fault plan (when
// installed) makes the member's driver reject every request with
// ErrDiskDead — the full member-loss fault, hardware seam included.
func (ms *Members) KillMember(m int) error {
	if err := ms.Array.KillMember(m); err != nil {
		return err
	}
	if ms.Fault != nil {
		ms.Fault.Kill(m)
	}
	return nil
}

// RebuildMember rebuilds dead member m online onto the Media's
// replacement drive, against live traffic: reads and writes keep
// flowing (degraded) while the array copies the member's content back
// from the survivors. It returns when the rebuild completes; the dead
// member's driver is retired.
func (ms *Members) RebuildMember(t sched.Task, m int) error {
	if !ms.Array.Degraded() || ms.Array.DeadMember() != m {
		return fmt.Errorf("health: member %d is not the dead member (dead: %d)", m, ms.Array.DeadMember())
	}
	drv, err := ms.Media.Replacement(m)
	if err != nil {
		return err
	}
	sub, err := ms.member(drv, m, stack.MemberName(ms.Name, len(ms.Drivers), m))
	if err == nil {
		if ms.Fault != nil {
			// Let I/O reach the replacement: the plan still addresses
			// the member by index, and the rebuild is about to write
			// there.
			ms.Fault.Revive()
		}
		err = ms.Array.Rebuild(t, sub)
	}
	ms.drvMu.Lock()
	defer ms.drvMu.Unlock()
	switch old := ms.Drivers[m]; {
	case old == drv:
		// A rebuild onto the member's own drive swaps nothing.
	case err != nil:
		drv.Close()
	default:
		ms.retired = append(ms.retired, old)
		ms.Drivers[m] = drv
	}
	return err
}

// AllDrivers snapshots the member drivers plus any a repair retired,
// under the swap lock: counter aggregation over the snapshot stays
// monotonic across a mid-run driver swap.
func (ms *Members) AllDrivers() []device.Driver {
	ms.drvMu.Lock()
	defer ms.drvMu.Unlock()
	out := append([]device.Driver(nil), ms.Drivers...)
	return append(out, ms.retired...)
}

// Slots snapshots the member drivers and the spare pool's, by slot
// (nil once promoted).
func (ms *Members) Slots() (members, spares []device.Driver) {
	ms.drvMu.Lock()
	defer ms.drvMu.Unlock()
	return append([]device.Driver(nil), ms.Drivers...), append([]device.Driver(nil), ms.spares...)
}

// Close closes every driver: members, retired ones and idle spares.
func (ms *Members) Close() {
	_, spares := ms.Slots()
	for _, drv := range append(ms.AllDrivers(), spares...) {
		if drv != nil {
			drv.Close()
		}
	}
}

// driverSource adapts a member driver's statistics to Source.
type driverSource struct {
	name string
	ds   *device.DriverStats
}

func (s driverSource) Name() string { return s.name }
func (s driverSource) HealthEvidence() Evidence {
	return Evidence{
		Errors:     s.ds.IOErrors.Value(),
		DeadErrors: s.ds.DeadErrors.Value(),
		Consec:     s.ds.ConsecutiveErrors(),
	}
}

// Supervise builds the health monitor over the member drivers and
// starts the supervisor task, which samples their evidence every
// interval (0 = 25ms) on the kernel clock and repairs each confirmed
// death on the task that confirmed it.
func (ms *Members) Supervise(interval time.Duration) {
	srcs := make([]Source, len(ms.Drivers))
	for i, drv := range ms.Drivers {
		srcs[i] = driverSource{name: fmt.Sprintf("d%d", i), ds: drv.DriverStats()}
	}
	ms.Monitor = NewMonitor(srcs)
	ms.killTimes = make(map[int]sched.Time)
	if ms.Fault != nil {
		// Timestamp the injected kill so HealEvents can report true
		// detection latency (the OnKill list is one-shot; promoteSpare
		// re-arms it after each Revive).
		ms.Fault.OnKill(ms.noteKill)
	}
	if interval <= 0 {
		interval = defaultInterval
	}
	ms.healMu = ms.K.NewMutex(ms.Name + ".selfheal")
	ms.healStop = ms.K.NewEvent(ms.Name + ".selfheal.stop")
	ms.healDone = ms.K.NewEvent(ms.Name + ".selfheal.done")
	ms.K.Go(ms.Name+".selfheal", func(t sched.Task) {
		// A member declared dead before the mount never produces
		// evidence — the array routes around it — so adopt the array's
		// verdict directly. Read it under healMu: a member a repair in
		// flight has isolated is not dead once it is done.
		ms.judge(t, func() []int {
			if dm := ms.Array.DeadMember(); dm >= 0 {
				return ms.Monitor.MarkDead(dm)
			}
			return nil
		})
		// The wait is the sampling interval; a stop cuts it short.
		for !ms.healStop.WaitTimeout(t, interval) {
			ms.judge(t, ms.Monitor.Observe)
		}
		ms.healDone.Signal()
	})
}

// judge runs a monitor call that may confirm deaths and repairs each
// death it confirms, on task t. judge holds healMu throughout, so
// repairs run one at a time: a second confirmed death waits for the
// first repair and is then judged on its own merits.
func (ms *Members) judge(t sched.Task, call func() []int) {
	ms.healMu.Lock(t)
	for _, m := range call() {
		ms.heal(t, m)
	}
	ms.healMu.Unlock(t)
}

// Stop halts the supervisor task and waits, on t, for an in-flight
// repair to finish (or fail — a power cut makes its I/O fail fast).
// Without a supervisor it does nothing.
func (ms *Members) Stop(t sched.Task) {
	if ms.Monitor == nil {
		return
	}
	ms.healStop.Signal()
	ms.healDone.Wait(t)
	ms.healDone.Signal() // a later stop finds the task gone too
}

func (ms *Members) noteKill(m int) {
	ms.evMu.Lock()
	if _, ok := ms.killTimes[m]; !ok {
		ms.killTimes[m] = ms.K.Now()
	}
	ms.evMu.Unlock()
}

// HealEvents snapshots the supervised repairs so far, in order.
func (ms *Members) HealEvents() []HealEvent {
	ms.evMu.Lock()
	defer ms.evMu.Unlock()
	return append([]HealEvent(nil), ms.events...)
}

// MarkDead is the manual override: it forces the monitor's verdict for
// member m to Dead, which runs the same supervised repair as an
// evidence-confirmed death on t (returning when it completes or is
// refused). Without a supervisor it is the plain KillMember.
func (ms *Members) MarkDead(t sched.Task, m int) error {
	if ms.Monitor == nil {
		return ms.KillMember(m)
	}
	if m < 0 || m >= ms.Monitor.Members() {
		return fmt.Errorf("health: mark member %d dead of %d", m, ms.Monitor.Members())
	}
	ms.judge(t, func() []int { return ms.Monitor.MarkDead(m) })
	return nil
}

// heal is one supervised repair pass over member m, recorded as a
// HealEvent whether it succeeds or stops.
func (ms *Members) heal(t sched.Task, m int) {
	ev := HealEvent{Member: m, Spare: -1, DetectedAt: ms.K.Now()}
	ms.evMu.Lock()
	if kt, ok := ms.killTimes[m]; ok {
		delete(ms.killTimes, m)
		ev.KilledAt, ev.DetectMS = kt, msBetween(kt, ev.DetectedAt)
	}
	ms.evMu.Unlock()
	ev.Err = ms.repair(t, m, &ev)
	ms.evMu.Lock()
	ms.events = append(ms.events, ev)
	ms.evMu.Unlock()
}

// repair isolates member m, promotes a spare in its place and
// verifies the array, filling in ev; it returns why it stopped ("" on
// success).
func (ms *Members) repair(t sched.Task, m int, ev *HealEvent) string {
	// The array usually isolated the member first (it kills it on the
	// first ErrDiskDead from live traffic); a refusal with some OTHER
	// member dead is the second fault — refuse loudly, keep serving
	// degraded.
	if err := ms.KillMember(m); err != nil && ms.Array.DeadMember() != m {
		return fmt.Sprintf("isolate: %v", err)
	}
	slot, err := ms.promoteSpare(t, m)
	if err != nil {
		return fmt.Sprintf("promote: %v", err)
	}
	ev.Spare, ev.RebuiltAt = slot, ms.K.Now()
	st, err := ms.Array.Scrub(t, false)
	if err != nil {
		return fmt.Sprintf("verify: %v", err)
	}
	ev.ScrubMismatches, ev.ScrubbedAt = st.Mismatches, ms.K.Now()
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
// moves the member's identity — medium, driver slot, monitor source —
// over to it.
func (ms *Members) promoteSpare(t sched.Task, m int) (int, error) {
	slot, err := ms.Array.PromoteSpare(t)
	if err != nil {
		return -1, err
	}
	if err := ms.Media.Adopt(m, slot); err != nil {
		return slot, err
	}
	if ms.Fault != nil {
		ms.Fault.Revive()
		ms.Fault.OnKill(ms.noteKill)
	}
	ms.drvMu.Lock()
	drv := ms.spares[slot]
	ms.spares[slot] = nil
	ms.retired = append(ms.retired, ms.Drivers[m])
	ms.Drivers[m] = drv
	ms.drvMu.Unlock()
	ms.Monitor.Replace(m, driverSource{name: fmt.Sprintf("d%d", m), ds: drv.DriverStats()})
	return slot, nil
}
