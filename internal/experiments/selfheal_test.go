package experiments

import "testing"

// TestSelfHealStudy checks the BENCH_10 cells on the virtual kernel:
// every repair cell served all its ops through one clean supervised
// repair (run refuses a failed op, a failed or second HealEvent, and
// an array left degraded), with detection and MTTR on the virtual
// clock; the healthy baselines carry neither.
func TestSelfHealStudy(t *testing.T) {
	st, err := RunSelfHealStudy(DefaultSeed, []string{"mirrored", "parity"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Cells) != 4 {
		t.Fatalf("%d cells, want 4", len(st.Cells))
	}
	for i, r := range st.Cells {
		heal := i%2 == 1
		if r.Kernel != "virtual" || r.SimMS <= 0 || r.Ops != 2400 || r.SelfHeal != heal {
			t.Fatalf("cell %d: %+v", i, r)
		}
		if heal && (r.DetectMS <= 0 || r.MTTRMS <= r.DetectMS) {
			t.Fatalf("cell %d (%s): detect %.1fms, mttr %.1fms", i, r.Placement, r.DetectMS, r.MTTRMS)
		}
		if !heal && (r.DetectMS != 0 || r.MTTRMS != 0) {
			t.Fatalf("healthy cell %d (%s) reports a repair: %+v", i, r.Placement, r)
		}
	}
}
