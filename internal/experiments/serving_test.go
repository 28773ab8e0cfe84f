package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bench"
)

// The study's virtual cells are deterministic and show the
// before/after: readahead turns the cold stream into cache hits.
func TestServingStudyVirtualCells(t *testing.T) {
	before, err := bench.RunSim(streamCell(-1))
	if err != nil {
		t.Fatal(err)
	}
	after, err := bench.RunSim(streamCell(8))
	if err != nil {
		t.Fatal(err)
	}
	if after.P50MS >= before.P50MS {
		t.Fatalf("readahead p50 %.2f not better than %.2f", after.P50MS, before.P50MS)
	}
	again, err := bench.RunSim(streamCell(8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, after) {
		t.Fatal("virtual study cell is not deterministic")
	}
}

func TestServingTableRenders(t *testing.T) {
	st := &ServingStudy{
		Stream: []ServingRow{
			{Name: "stream, readahead off", Res: bench.Result{Kernel: "virtual", OpsPerSec: 13.2, P50MS: 15.2}},
			{Name: "stream, readahead 8", Res: bench.Result{Kernel: "virtual", OpsPerSec: 16.5, P50MS: 0.2}},
		},
		Baseline: []ServingRow{
			{Name: "4 clients, parity degraded", Res: bench.Result{Kernel: "virtual", OpsPerSec: 200}},
		},
	}
	out := ServingTable(st)
	if !strings.Contains(out, "readahead off") || !strings.Contains(out, "parity degraded") || !strings.Contains(out, "ops/sec") {
		t.Fatalf("table missing content:\n%s", out)
	}
}

// The pinned baseline holds exactly the six virtual cells, each under
// a distinct identity, with a dead member costing throughput, and
// nothing that depends on the machine that made it.
func TestServingBaselineCells(t *testing.T) {
	st, err := RunServingStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Baseline) != 6 {
		t.Fatalf("baseline has %d cells, want 6", len(st.Baseline))
	}
	type key struct {
		clients   int
		placement string
		degraded  bool
	}
	ops := map[key]float64{}
	for _, r := range st.Baseline {
		if r.Res.Kernel != "virtual" {
			t.Errorf("%s: kernel %q, want virtual", r.Name, r.Res.Kernel)
		}
		if r.Res.OpsPerSec <= 0 {
			t.Errorf("%s: ops/sec %v, want > 0", r.Name, r.Res.OpsPerSec)
		}
		k := key{r.Res.Clients, r.Res.Placement, r.Res.Degraded}
		if _, dup := ops[k]; dup {
			t.Errorf("%s: cell identity %+v is not unique", r.Name, k)
		}
		ops[k] = r.Res.OpsPerSec
	}
	for _, pl := range []string{"mirrored", "parity"} {
		healthy, degraded := ops[key{4, pl, false}], ops[key{4, pl, true}]
		if degraded >= healthy {
			t.Errorf("%s: degraded %.1f ops/sec not below healthy %.1f", pl, degraded, healthy)
		}
	}
	out, err := ServingBaselineJSON(st)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(out, []byte("gomaxprocs")) {
		t.Error("baseline records gomaxprocs, a machine-dependent byte")
	}
}
