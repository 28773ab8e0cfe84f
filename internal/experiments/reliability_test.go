package experiments

import (
	"bytes"
	"testing"
	"time"
)

// reliabilityScale shrinks the quick rig further so the study's 16
// cells stay test-sized.
func reliabilityScale() Scale {
	s := QuickScale()
	s.Duration = 40 * time.Second
	return s
}

// TestReliabilityStudyGuarantees runs the full policy × layout ×
// width grid into a crash and checks the paper's reliability claims
// hold in the measurements: persistent policies lose nothing and
// recover what they preserved; write-delay's loss window respects
// the update daemon's bound.
func TestReliabilityStudyGuarantees(t *testing.T) {
	st, err := RunReliabilityStudy(Parallel(), reliabilityScale(), "1a", DefaultSeed,
		[]string{"lfs", "ffs"}, []int{1, 2})
	if err != nil {
		t.Fatalf("RunReliabilityStudy: %v", err)
	}
	if len(st.Cells) != 4*2*2 {
		t.Fatalf("cells = %d, want 16", len(st.Cells))
	}
	sawLoss := false
	for _, c := range st.Cells {
		if !c.Recovered {
			t.Errorf("%s/%s/%dvol: recovery did not complete", c.Policy, c.Layout, c.Volumes)
		}
		if c.Persistent {
			if c.LostBlocks != 0 || c.LossWindowMS != 0 {
				t.Errorf("%s/%s/%dvol: persistent policy lost %d blocks (window %.0fms)",
					c.Policy, c.Layout, c.Volumes, c.LostBlocks, c.LossWindowMS)
			}
			if c.ReplayedBlocks+c.DroppedBlocks != c.SurvivorBlocks {
				t.Errorf("%s/%s/%dvol: %d survivors but %d replayed + %d dropped",
					c.Policy, c.Layout, c.Volumes, c.SurvivorBlocks, c.ReplayedBlocks, c.DroppedBlocks)
			}
		} else {
			if c.SurvivorBlocks != 0 {
				t.Errorf("%s/%s/%dvol: volatile policy kept %d survivors",
					c.Policy, c.Layout, c.Volumes, c.SurvivorBlocks)
			}
			// The 30s update rule bounds the loss window: a dirty
			// block older than MaxAge is flushed within one scan, so
			// nothing lost can be older than MaxAge + ScanInterval
			// (plus the drain second the crash task allows).
			if bound := 36 * time.Second; time.Duration(c.LossWindowMS)*time.Millisecond > bound {
				t.Errorf("%s/%s/%dvol: loss window %.0fms exceeds the write-delay bound %v",
					c.Policy, c.Layout, c.Volumes, c.LossWindowMS, bound)
			}
			if c.LostBlocks > 0 {
				sawLoss = true
			}
		}
		if c.RecoveryMS <= 0 {
			t.Errorf("%s/%s/%dvol: recovery took no virtual time", c.Policy, c.Layout, c.Volumes)
		}
	}
	if !sawLoss {
		t.Error("no write-delay cell measured any loss — the crash landed on an empty cache?")
	}
}

// TestReliabilityIntentStudy runs the intent-log revision of the grid
// and checks the namespace half of the paper's guarantee: persistent
// policies lose no acknowledged namespace operation, replay accounts
// for every surviving intent, and volatile policies keep none.
func TestReliabilityIntentStudy(t *testing.T) {
	st, err := RunReliabilityIntentStudy(Parallel(), reliabilityScale(), "1a", DefaultSeed,
		[]string{"lfs", "ffs"}, []int{1, 2})
	if err != nil {
		t.Fatalf("RunReliabilityIntentStudy: %v", err)
	}
	if st.Revision != 6 {
		t.Fatalf("revision = %d, want 6", st.Revision)
	}
	sawOps := false
	for _, c := range st.Cells {
		ns := c.Namespace
		if ns == nil {
			t.Fatalf("%s/%s/%dvol: intent study cell has no namespace column", c.Policy, c.Layout, c.Volumes)
		}
		if ns.Ops > 0 {
			sawOps = true
		}
		if c.Persistent {
			if ns.LostIntents != 0 || ns.LossWindowMS != 0 {
				t.Errorf("%s/%s/%dvol: persistent policy lost %d intents (window %.0fms)",
					c.Policy, c.Layout, c.Volumes, ns.LostIntents, ns.LossWindowMS)
			}
			if ns.Replayed+ns.Noop+ns.Dropped != ns.SurvivorIntents {
				t.Errorf("%s/%s/%dvol: %d surviving intents but %d replayed + %d noop + %d dropped",
					c.Policy, c.Layout, c.Volumes, ns.SurvivorIntents, ns.Replayed, ns.Noop, ns.Dropped)
			}
		} else if ns.SurvivorIntents != 0 {
			t.Errorf("%s/%s/%dvol: volatile policy kept %d intents",
				c.Policy, c.Layout, c.Volumes, ns.SurvivorIntents)
		}
	}
	if !sawOps {
		t.Error("no cell recorded any namespace operation — the trace replay created nothing?")
	}
}

// TestReliabilityStudyDeterministic pins the study's JSON byte-for-
// byte across worker counts — the engine contract.
func TestReliabilityStudyDeterministic(t *testing.T) {
	s := reliabilityScale()
	s.Duration = 20 * time.Second
	a, err := RunReliabilityStudy(&Engine{Workers: 1}, s, "1a", DefaultSeed, []string{"lfs"}, []int{1, 2})
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	b, err := RunReliabilityStudy(Parallel(), s, "1a", DefaultSeed, []string{"lfs"}, []int{1, 2})
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	ja, _ := ReliabilityJSON(a)
	jb, _ := ReliabilityJSON(b)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("study not deterministic across worker counts:\n%s\nvs\n%s", ja, jb)
	}
}
