// Package health turns raw per-member I/O evidence into verdicts a
// repair supervisor can act on. The device layer accumulates
// cumulative error counters (device.DriverStats); a Monitor samples
// them periodically and runs a small hysteresis state machine per
// member:
//
//	Healthy ─evidence─▶ Suspect ─sustained─▶ Probation
//	   ▲                   │                     │
//	   └──── clean window ──┴──── clean window ───┘
//
//	any state ─(dead-member rejection | consecutive-error run)─▶ Dead
//
// Transient evidence (injected read/write errors) can only raise a
// member to Suspect or Probation — states it decays back out of after
// a clean window. Only hard evidence confirms Dead: a permanent
// dead-member rejection (device.ErrDiskDead) or an unbroken run of
// failures longer than killConsec. An intermittently
// flaky member therefore oscillates between Suspect and Probation
// forever without being flapped to death, while a genuinely dead one
// is confirmed within a single evidence sample of its first rejected
// I/O.
//
// The Monitor holds only plain mutexes and atomics, so verdicts and
// state snapshots are safe to read from metric scrapers and admin
// handlers without touching kernel state. Members (members.go) puts a
// Monitor to work: it owns an array's member drives and runs member
// loss — kill, rebuild, hot spares and the self-heal supervisor — on
// either kernel.
package health

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Verdict is a member's current health classification.
type Verdict int

const (
	Healthy Verdict = iota
	Suspect
	Probation
	Dead
)

func (v Verdict) String() string {
	switch v {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Probation:
		return "probation"
	case Dead:
		return "dead"
	}
	return fmt.Sprintf("verdict(%d)", int(v))
}

// Evidence is one cumulative sample of a member's health counters.
// All fields are monotonic totals; the Monitor differences successive
// samples itself.
type Evidence struct {
	Errors     int64 // transient I/O errors
	DeadErrors int64 // permanent dead-member rejections
	Consec     int64 // current run of back-to-back failures
}

// Source supplies evidence for one member.
type Source interface {
	Name() string
	HealthEvidence() Evidence
}

// The state machine's tuning.
const (
	// window is the number of samples in the sliding evidence window.
	window = 8
	// suspectScore is the windowed error count that raises Healthy
	// to Suspect.
	suspectScore = 3
	// probationAfter is the number of consecutive evidence-bearing
	// samples that escalates Suspect to Probation.
	probationAfter = 2
	// clearAfter is the number of consecutive clean samples (with an
	// empty window) that steps a member back down one state.
	clearAfter = window
	// killConsec is the unbroken failure run that confirms Dead even
	// without a permanent rejection.
	killConsec = 12
)

// MemberState is a point-in-time snapshot for admin surfaces.
type MemberState struct {
	Name        string
	Verdict     Verdict
	WindowErrs  int64 // transient errors in the evidence window
	Consec      int64 // current back-to-back failure run
	Transitions int64 // verdict changes since attach
}

type memberFSM struct {
	src     Source
	prev    Evidence
	primed  bool    // prev is valid (first sample only establishes a baseline)
	ring    []int64 // transient errors per sample
	idx     int
	verdict Verdict
	hot     int // consecutive evidence-bearing samples
	cool    int // consecutive clean samples
	trans   int64
}

func (f *memberFSM) windowScore() int64 {
	var errs int64
	for _, d := range f.ring {
		errs += d
	}
	return errs
}

// Monitor runs one state machine per member over sampled evidence.
type Monitor struct {
	mu     sync.Mutex
	fsm    []*memberFSM
	deaths atomic.Int64
}

// NewMonitor builds a monitor over the given member sources.
func NewMonitor(members []Source) *Monitor {
	m := &Monitor{}
	for _, s := range members {
		m.fsm = append(m.fsm, &memberFSM{src: s, ring: make([]int64, window)})
	}
	return m
}

// Members returns the number of members under watch.
func (m *Monitor) Members() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.fsm)
}

// Observe takes one evidence sample from every member, advances the
// state machines, and returns the members whose death this sample
// confirmed (each death is reported once).
func (m *Monitor) Observe() (died []int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, f := range m.fsm {
		was := f.verdict
		m.step(f)
		if f.verdict != was {
			f.trans++
			if f.verdict == Dead {
				m.deaths.Add(1)
				died = append(died, i)
			}
		}
	}
	return died
}

func (m *Monitor) step(f *memberFSM) {
	ev := f.src.HealthEvidence()
	if !f.primed {
		// First contact: adopt the counters as the baseline so
		// pre-attach history is not charged against the member, but
		// still honor hard evidence already on the books.
		f.prev, f.primed = ev, true
		if ev.DeadErrors > 0 || ev.Consec >= killConsec {
			f.verdict = Dead
		}
		return
	}
	d := ev.Errors - f.prev.Errors
	newDead := ev.DeadErrors - f.prev.DeadErrors
	f.prev = ev
	f.ring[f.idx] = d
	f.idx = (f.idx + 1) % len(f.ring)

	if f.verdict == Dead {
		return // sticky until Replace
	}
	// Hard evidence: a permanent rejection or an unbroken failure run.
	if newDead > 0 || ev.Consec >= killConsec {
		f.verdict = Dead
		return
	}
	if d > 0 {
		f.hot++
		f.cool = 0
	} else {
		f.cool++
		if f.cool >= clearAfter {
			f.hot = 0
		}
	}
	score := f.windowScore()
	switch f.verdict {
	case Healthy:
		if score >= suspectScore {
			f.verdict = Suspect
		}
	case Suspect:
		if f.hot >= probationAfter {
			f.verdict = Probation
		} else if score == 0 && f.cool >= clearAfter {
			f.verdict = Healthy
		}
	case Probation:
		if score == 0 && f.cool >= clearAfter {
			f.verdict = Suspect
			f.hot = 0
		}
	}
}

// Verdict returns member i's current verdict.
func (m *Monitor) Verdict(i int) Verdict {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.fsm[i].verdict
}

// MarkDead is the manual override: it forces member i's verdict to
// Dead exactly as if the evidence had confirmed the death, and
// returns the death it confirmed ([i], or nothing when i was already
// dead).
func (m *Monitor) MarkDead(i int) []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.fsm[i]
	if f.verdict == Dead {
		return nil
	}
	f.verdict = Dead
	f.trans++
	m.deaths.Add(1)
	return []int{i}
}

// Replace points member i at a fresh source (a promoted spare) and
// resets its state machine to Healthy with an empty window.
func (m *Monitor) Replace(i int, s Source) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.fsm[i] = &memberFSM{src: s, ring: make([]int64, window)}
}

// States snapshots every member for admin surfaces.
func (m *Monitor) States() []MemberState {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]MemberState, len(m.fsm))
	for i, f := range m.fsm {
		out[i] = MemberState{
			Name:        f.src.Name(),
			Verdict:     f.verdict,
			WindowErrs:  f.windowScore(),
			Consec:      f.prev.Consec,
			Transitions: f.trans,
		}
	}
	return out
}

// ConfirmedDeaths returns the number of deaths the monitor has
// confirmed (including manual overrides). Safe for scrapers.
func (m *Monitor) ConfirmedDeaths() int64 { return m.deaths.Load() }
