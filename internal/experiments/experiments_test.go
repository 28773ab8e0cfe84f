package experiments

import (
	"strings"
	"testing"
	"time"
)

// tinyScale keeps experiment tests fast.
func tinyScale() Scale {
	s := QuickScale()
	s.Duration = 45 * time.Second
	return s
}

func TestRunTraceAllPolicies(t *testing.T) {
	runs, err := RunTraceWith(Parallel(), tinyScale(), "1a", 3)
	if err != nil {
		t.Fatalf("RunTrace: %v", err)
	}
	if len(runs) != 4 {
		t.Fatalf("%d policy runs, want 4", len(runs))
	}
	names := map[string]bool{}
	for _, r := range runs {
		names[r.Policy] = true
		if r.Report.WallOps == 0 {
			t.Fatalf("policy %s completed no ops", r.Policy)
		}
	}
	for _, want := range []string{"writedelay", "ups", "nvram-whole", "nvram-partial"} {
		if !names[want] {
			t.Fatalf("missing policy %s", want)
		}
	}
}

func TestFigureCDFRender(t *testing.T) {
	runs, err := RunTraceWith(Parallel(), tinyScale(), "1a", 5)
	if err != nil {
		t.Fatal(err)
	}
	out := FigureCDF("Figure 2", "1a", runs)
	for _, want := range []string{"Figure 2", "writedelay", "ups", "mean", "17ms"} {
		if !strings.Contains(out, want) {
			t.Fatalf("CDF output missing %q:\n%s", want, out)
		}
	}
}

func TestFigure5AndClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-trace figure in -short mode")
	}
	rows, err := RunFigure5With(Parallel(), tinyScale(), 7, []string{"1a", "1b", "5"})
	if err != nil {
		t.Fatalf("RunFigure5: %v", err)
	}
	out := Figure5(rows)
	if !strings.Contains(out, "Figure 5") || !strings.Contains(out, "1b") {
		t.Fatalf("figure 5 render incomplete:\n%s", out)
	}
	claims := ClaimChecks(rows)
	if !strings.Contains(claims, "UPS faster than write-delay") {
		t.Fatalf("claims missing:\n%s", claims)
	}
	// The headline result must reproduce at this scale: the
	// write-saving claim about disk traffic.
	if !strings.Contains(claims, "[PASS] UPS writes fewer blocks") {
		t.Fatalf("write-saving claim failed:\n%s", claims)
	}
}

func TestAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations in -short mode")
	}
	s := tinyScale()
	s.Duration = 30 * time.Second
	if out, err := AblateLayout(nil, s, "2a", 11); err != nil || !strings.Contains(out, "lfs") {
		t.Fatalf("layout ablation: %v\n%s", err, out)
	}
	if out, err := AblateDiskModel(nil, s, "1a", 11); err != nil || !strings.Contains(out, "naive") {
		t.Fatalf("disk-model ablation: %v\n%s", err, out)
	}
	if out, err := AblateQueueSched(nil, s, "1a", 11); err != nil || !strings.Contains(out, "clook") {
		t.Fatalf("queue ablation: %v\n%s", err, out)
	}
}

func TestScaleTraceOverrides(t *testing.T) {
	s := QuickScale()
	recs := s.Trace("1b", 1)
	if len(recs) == 0 {
		t.Fatal("no records")
	}
	for _, r := range recs {
		if int(r.Vol) > s.Volumes {
			t.Fatalf("record on volume %d beyond scale's %d", r.Vol, s.Volumes)
		}
	}
}

func TestUnknownTracePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown trace accepted")
		}
	}()
	QuickScale().Trace("zzz", 1)
}
