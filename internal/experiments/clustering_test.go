package experiments

import (
	"strconv"
	"testing"
	"time"
)

// clusteringScale shrinks the quick rig so the 2-layout × 3-cap grid
// stays test-sized while the large writers still produce runs.
func clusteringScale() Scale {
	s := QuickScale()
	s.Duration = 60 * time.Second
	return s
}

// TestClusteringStudyRatioDrops runs the grid and checks the
// headline claim: with clustering on, both layouts issue fewer
// device requests for (at least) the same traffic — the blocks-per-
// request ratio rises and the request count falls.
func TestClusteringStudyRatioDrops(t *testing.T) {
	st, err := RunClusteringStudy(Parallel(), clusteringScale(), "1b", DefaultSeed,
		[]string{"lfs", "ffs"}, []int{0, 8})
	if err != nil {
		t.Fatalf("RunClusteringStudy: %v", err)
	}
	if len(st.Cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(st.Cells))
	}
	byKey := map[string]ClusteringCell{}
	for _, c := range st.Cells {
		byKey[c.Layout+"-"+strconv.Itoa(c.Cluster)] = c
	}
	for _, lay := range []string{"lfs", "ffs"} {
		off, on := byKey[lay+"-0"], byKey[lay+"-8"]
		if off.ReadReqs+off.WriteReqs == 0 {
			t.Fatalf("%s: empty off cell", lay)
		}
		if on.BlocksPerReq <= off.BlocksPerReq {
			t.Errorf("%s: blocks/request did not rise: %.2f off vs %.2f on",
				lay, off.BlocksPerReq, on.BlocksPerReq)
		}
		if on.ReadReqs+on.WriteReqs >= off.ReadReqs+off.WriteReqs {
			t.Errorf("%s: requests did not drop: %d off vs %d on",
				lay, off.ReadReqs+off.WriteReqs, on.ReadReqs+on.WriteReqs)
		}
	}
}

// TestClusteringStudyDeterministic pins the engine contract: the
// same study at 1 worker and N workers renders byte-identically.
func TestClusteringStudyDeterministic(t *testing.T) {
	s := clusteringScale()
	s.Duration = 30 * time.Second
	a, err := RunClusteringStudy(&Engine{Workers: 1}, s, "1b", DefaultSeed, []string{"lfs"}, []int{0, 8})
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	b, err := RunClusteringStudy(Parallel(), s, "1b", DefaultSeed, []string{"lfs"}, []int{0, 8})
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	aj, err := ClusteringJSON(a)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := ClusteringJSON(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(aj) != string(bj) {
		t.Fatalf("clustering study not deterministic across workers:\n%s\nvs\n%s", aj, bj)
	}
}
