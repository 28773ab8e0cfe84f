package experiments

import "testing"

// TestDegradedStudy checks the study's shape and the properties the
// committed BENCH_8 artifact leans on: deterministic cells, a
// degraded cell that really runs degraded (reconstruction happened),
// and a rebuilding cell whose rebuild actually took simulated time.
func TestDegradedStudy(t *testing.T) {
	placements := []string{"mirrored", "parity"}
	if testing.Short() {
		placements = []string{"parity"}
	}
	st, err := RunDegradedStudy(DefaultSeed, placements, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Cells) != 3*len(placements) {
		t.Fatalf("%d cells, want %d", len(st.Cells), 3*len(placements))
	}
	for i, r := range st.Cells {
		pl := placements[i/3]
		state := degradedStates[i%3]
		if r.Placement != pl {
			t.Fatalf("cell %d: placement %q, want %q", i, r.Placement, pl)
		}
		if r.Degraded != (state != "healthy") || r.Rebuild != (state == "rebuilding") {
			t.Fatalf("cell %d (%s/%s): state flags degraded=%v rebuild=%v", i, pl, state, r.Degraded, r.Rebuild)
		}
		if r.OpsPerSec <= 0 {
			t.Fatalf("cell %s/%s: ops/sec %f", pl, state, r.OpsPerSec)
		}
		if r.Rebuild && r.RebuildMS <= 0 {
			t.Fatalf("cell %s/%s: rebuild took no simulated time", pl, state)
		}
	}
	// Determinism: the same seed reproduces the same numbers (this is
	// what lets BENCH_8 be a committed artifact and a CI gate).
	again, err := RunDegradedStudy(DefaultSeed, placements[:1], 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range again.Cells {
		if got := st.Cells[i].OpsPerSec; got != r.OpsPerSec {
			t.Fatalf("cell %s/%s not deterministic: %f then %f", placements[0], degradedStates[i], got, r.OpsPerSec)
		}
	}
}
