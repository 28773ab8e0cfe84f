package health

import (
	"fmt"
	"sync"
	"testing"
)

// fakeSource is a hand-cranked evidence counter set.
type fakeSource struct {
	mu   sync.Mutex
	name string
	ev   Evidence
}

func (f *fakeSource) Name() string { return f.name }

func (f *fakeSource) HealthEvidence() Evidence {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ev
}

// fail records n transient failures, extending the back-to-back run.
func (f *fakeSource) fail(n int64) {
	f.mu.Lock()
	f.ev.Errors += n
	f.ev.Consec += n
	f.mu.Unlock()
}

func (f *fakeSource) succeed() {
	f.mu.Lock()
	f.ev.Consec = 0
	f.mu.Unlock()
}

func (f *fakeSource) dead() {
	f.mu.Lock()
	f.ev.DeadErrors++
	f.ev.Consec++
	f.mu.Unlock()
}

func newTestMonitor(n int) (*Monitor, []*fakeSource) {
	srcs := make([]*fakeSource, n)
	members := make([]Source, n)
	for i := range srcs {
		srcs[i] = &fakeSource{name: fmt.Sprintf("d%d", i)}
		members[i] = srcs[i]
	}
	return NewMonitor(members), srcs
}

// TestEscalationAndDecay walks one member up the ladder with
// transient evidence and back down with clean samples: transient
// evidence must never confirm Dead.
func TestEscalationAndDecay(t *testing.T) {
	m, srcs := newTestMonitor(1)
	s := srcs[0]

	m.Observe() // prime the baseline
	if v := m.Verdict(0); v != Healthy {
		t.Fatalf("baseline verdict %v, want healthy", v)
	}

	// Enough windowed evidence raises Suspect...
	s.fail(suspectScore)
	s.succeed()
	m.Observe()
	if v := m.Verdict(0); v != Suspect {
		t.Fatalf("after %d errors: %v, want suspect", suspectScore, v)
	}
	// ...and sustained evidence-bearing samples escalate to Probation.
	for i := 0; i < probationAfter; i++ {
		s.fail(1)
		s.succeed()
		m.Observe()
	}
	if v := m.Verdict(0); v != Probation {
		t.Fatalf("after sustained evidence: %v, want probation", v)
	}

	// Clean samples decay one state at a time: the verdict must pass
	// back through Suspect on its way down, never jump straight home.
	var seen []Verdict
	last := Probation
	for i := 0; i < 4*(window+clearAfter); i++ {
		m.Observe()
		if v := m.Verdict(0); v != last {
			seen = append(seen, v)
			last = v
		}
		if last == Healthy {
			break
		}
	}
	if len(seen) != 2 || seen[0] != Suspect || seen[1] != Healthy {
		t.Fatalf("decay path %v, want [suspect healthy]", seen)
	}
	if n := m.ConfirmedDeaths(); n != 0 {
		t.Fatalf("transient evidence confirmed %d deaths", n)
	}
}

// TestIntermittentNeverDies is the anti-flapping guarantee: a member
// that errors intermittently forever — every error run broken by a
// success before killConsec — oscillates below Dead for thousands of
// samples.
func TestIntermittentNeverDies(t *testing.T) {
	m, srcs := newTestMonitor(2)
	flaky := srcs[0]
	var died int
	for i := 0; i < 5000; i++ {
		// A nasty rhythm: bursts just under the consecutive-failure
		// bound, then a single success, repeatedly.
		flaky.fail(killConsec - 1)
		flaky.succeed()
		died += len(m.Observe())
		if v := m.Verdict(0); v == Dead {
			t.Fatalf("intermittent member confirmed dead at sample %d", i)
		}
	}
	if v := m.Verdict(0); v != Suspect && v != Probation {
		t.Fatalf("persistently flaky member settled at %v, want suspect/probation", v)
	}
	if v := m.Verdict(1); v != Healthy {
		t.Fatalf("quiet member dragged to %v by its neighbor", v)
	}
	if died != 0 || m.ConfirmedDeaths() != 0 {
		t.Fatalf("%d deaths confirmed for transient evidence", died)
	}
}

// TestHardEvidenceConfirmsDead pins the two hard paths: a permanent
// dead-member rejection confirms within one sample, as does an
// unbroken failure run reaching killConsec. The verdict is sticky
// until Replace, and Observe reports each death exactly once.
func TestHardEvidenceConfirmsDead(t *testing.T) {
	m, srcs := newTestMonitor(2)
	var deaths []int
	m.Observe() // prime

	srcs[0].dead()
	deaths = append(deaths, m.Observe()...)
	if v := m.Verdict(0); v != Dead {
		t.Fatalf("dead rejection sampled as %v, want dead", v)
	}

	srcs[1].fail(killConsec)
	deaths = append(deaths, m.Observe()...)
	if v := m.Verdict(1); v != Dead {
		t.Fatalf("unbroken run of %d sampled as %v, want dead", killConsec, v)
	}

	// Sticky: clean samples do not resurrect a confirmed death.
	srcs[0].succeed()
	srcs[1].succeed()
	for i := 0; i < 3*window; i++ {
		deaths = append(deaths, m.Observe()...)
	}
	if m.Verdict(0) != Dead || m.Verdict(1) != Dead {
		t.Fatal("confirmed death decayed without Replace")
	}
	if len(deaths) != 2 || deaths[0] != 0 || deaths[1] != 1 || m.ConfirmedDeaths() != 2 {
		t.Fatalf("deaths reported %v (counter %d), want [0 1]", deaths, m.ConfirmedDeaths())
	}

	// Replace resets the slot to a fresh healthy machine.
	m.Replace(0, &fakeSource{name: "s0"})
	m.Observe()
	if v := m.Verdict(0); v != Healthy {
		t.Fatalf("replaced member starts %v, want healthy", v)
	}
	if st := m.States()[0]; st.Name != "s0" || st.Transitions != 0 {
		t.Fatalf("replaced state %+v, want fresh s0", st)
	}
}

// TestFirstSamplePrimesBaseline ensures pre-attach history is not
// charged against a member — except hard evidence already on the
// books, which must confirm immediately.
func TestFirstSamplePrimesBaseline(t *testing.T) {
	noisy := &fakeSource{name: "noisy", ev: Evidence{Errors: 500}}
	corpse := &fakeSource{name: "corpse", ev: Evidence{DeadErrors: 1}}
	m := NewMonitor([]Source{noisy, corpse})
	m.Observe()
	if v := m.Verdict(0); v != Healthy {
		t.Fatalf("historic counters charged at attach: %v", v)
	}
	if v := m.Verdict(1); v != Dead {
		t.Fatalf("pre-existing dead rejection ignored at attach: %v", v)
	}
}

// TestMarkDeadManualOverride checks the operator path: the verdict
// flips, the death is reported once, and a second override is a no-op.
func TestMarkDeadManualOverride(t *testing.T) {
	m, _ := newTestMonitor(1)
	fired := len(m.MarkDead(0)) + len(m.MarkDead(0))
	if v := m.Verdict(0); v != Dead {
		t.Fatalf("verdict %v after MarkDead", v)
	}
	if fired != 1 || m.ConfirmedDeaths() != 1 {
		t.Fatalf("override reported %d deaths (counter %d), want 1", fired, m.ConfirmedDeaths())
	}
}

// TestConcurrentObserveAndScrape hammers Observe against the
// scrape-side accessors under -race.
func TestConcurrentObserveAndScrape(t *testing.T) {
	m, srcs := newTestMonitor(3)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			srcs[i%3].fail(1)
			if i%5 == 0 {
				srcs[i%3].succeed()
			}
			m.Observe()
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = m.States()
			_ = m.Verdict(1)
			_ = m.ConfirmedDeaths()
		}
	}()
	for i := 0; i < 200; i++ {
		_ = m.States()[i%3]
	}
	close(stop)
	wg.Wait()
}
