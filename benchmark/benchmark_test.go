package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of 3 values = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 values = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	ns := make([]int64, 100)
	for i := range ns {
		ns[i] = int64(i+1) * 1000 // 1..100 us
	}
	for _, c := range []struct{ q, want float64 }{{0.50, 50}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := percentileNS(ns, c.q); got != c.want {
			t.Errorf("percentile %v = %v us, want %v", c.q, got, c.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to what Python's
// statistics.quantiles(values, n=4) returns, the acceptance rule.
func TestQuartilesMatchPython(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(ten); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if q1, q3 := quartiles([]float64{1, 2, 3, 4, 5}); q1 != 1.5 || q3 != 4.5 {
		t.Errorf("quartiles of 1..5 = %v, %v, want 1.5, 4.5", q1, q3)
	}
	if got := spread(ten); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want 1", got)
	}
}

func TestOpGenIsSeeded(t *testing.T) {
	for _, wl := range pfsWorkloads {
		draw := func(seed int64, w int) []op {
			g := newOpGen(wl, seed, w, 2)
			ops := make([]op, 500)
			for i := range ops {
				ops[i] = g.next()
			}
			return ops
		}
		a, b, c := draw(7, 0), draw(7, 0), draw(8, 0)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: equal seeds gave different op streams", wl.Name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds gave the same op stream", wl.Name)
		}
		// The two workers never share a file, and every op is in range.
		mine := map[int]bool{}
		for _, o := range a {
			mine[o.file] = true
			if o.blk < 0 || o.blk+int64(wl.IOBlocks) > int64(wl.FileBlocks) || o.blk%int64(wl.IOBlocks) != 0 {
				t.Fatalf("%s: op %+v out of range or misaligned", wl.Name, o)
			}
		}
		for _, o := range draw(7, 1) {
			if mine[o.file] {
				t.Fatalf("%s: workers 0 and 1 both use file %d", wl.Name, o.file)
			}
		}
	}
}

func TestPatternTellsBlocksApart(t *testing.T) {
	a, b := make([]byte, 4096), make([]byte, 4096)
	fillPattern(a, 1, 2, 3)
	for _, other := range [][3]int{{2, 2, 3}, {1, 3, 3}, {1, 2, 4}} {
		fillPattern(b, other[0], int64(other[1]), uint32(other[2]))
		if reflect.DeepEqual(a, b) {
			t.Errorf("pattern of (1,2,3) equals pattern of %v", other)
		}
	}
	fillPattern(b, 1, 2, 3)
	if !reflect.DeepEqual(a, b) {
		t.Error("pattern is not a function of (file, block, version)")
	}
}

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []jsonMetric `json:"end_to_end"`
	PerLayer   []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// TestContractInStep keeps the metric tables in the code and
// BENCHMARK.json at the root of the repository saying the same thing.
func TestContractInStep(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory:", err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads: BENCHMARK.json has %v, the code has %v", names, workloadNames())
	}
	check := func(kind string, file []jsonMetric, code []metricDef) {
		if len(file) != len(code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(file), len(code))
			return
		}
		for i, m := range code {
			f := file[i]
			if f.Name != m.Name || f.Unit != m.Unit || f.Better != m.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the code has %+v", kind, i, f, m)
			}
			if (f.Bound != nil) != (m.Bound > 0) || (f.Bound != nil && *f.Bound != m.Bound) {
				t.Errorf("%s %s: bounds differ", kind, m.Name)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// TestSmoke runs every workload, untraced and traced, at the smoke
// sizing: the harness must set up, measure, verify and report without
// a failed operation. No number is asserted.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, name := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			o, err := parseFlags([]string{"-workload", name, "-smoke", "-trace", trace, "-seed", "5",
				"-out", filepath.Join(dir, "out"), "-imagedir", filepath.Join(dir, "img")})
			if err != nil {
				t.Fatal(err)
			}
			res, err := runWorkload(o)
			if err != nil {
				t.Fatalf("%s trace=%s: %v", name, trace, err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%s: %d of %d operations failed", name, trace, res.Failed, res.Attempted)
			}
			if err := res.writeFile(o); err != nil {
				t.Fatal(err)
			}
			// The summary line survives a round trip and names every
			// metric of its kind with its unit.
			line, err := json.Marshal(res.line())
			if err != nil {
				t.Fatal(err)
			}
			var back summary
			if err := json.Unmarshal(line, &back); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(back, res.line()) {
				t.Errorf("%s trace=%s: summary changed in a JSON round trip", name, trace)
			}
			defs := endToEnd
			if o.traced {
				defs = perLayer
			}
			if len(back.Metrics) != len(defs) {
				t.Errorf("%s trace=%s: %d metrics reported, want %d", name, trace, len(back.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := back.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%s: metric %s missing or in unit %q, want %q", name, trace, d.Name, m.Unit, d.Unit)
				}
			}
			if o.traced {
				if _, err := os.Stat(filepath.Join(o.outDir, name+".spans.json")); err != nil {
					t.Errorf("%s: no span file: %v", name, err)
				}
			}
		}
	}
	// Nothing is left in the image directory.
	left, _ := os.ReadDir(filepath.Join(dir, "img"))
	if len(left) != 0 {
		t.Errorf("%d image files left behind", len(left))
	}
}
