package bench

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

func tiny() Config {
	return Config{
		Clients:     2,
		Ops:         40,
		Files:       2,
		FileBlocks:  32,
		IOBytes:     8 << 10,
		ReadFrac:    0.75,
		Seed:        1996,
		CacheBlocks: 128,
	}
}

// The virtual driver is fully deterministic: same config, same
// numbers — the property the committed CI baseline relies on.
func TestSimDeterministic(t *testing.T) {
	a, err := RunSim(tiny())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSim(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("virtual runs differ:\n%+v\n%+v", a, b)
	}
	if a.Ops != 80 || a.OpsPerSec <= 0 || a.P50MS <= 0 || a.SimMS <= 0 {
		t.Fatalf("implausible result: %+v", a)
	}
	if a.Kernel != "virtual" {
		t.Fatalf("kernel = %q", a.Kernel)
	}
}

// Readahead on the streaming cell turns cold sequential misses into
// hits and cuts p50 latency — the sim-side before/after the serving
// study reports.
func TestSimReadaheadImproves(t *testing.T) {
	cfg := Config{
		Clients: 1, Ops: 100, Files: 1, FileBlocks: 1024,
		IOBytes: 16 << 10, ReadFrac: 1.0, Seed: 1996,
		CacheBlocks: 256, Think: 60 * time.Millisecond,
	}
	off, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Readahead = 8
	on, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if on.Cache.ReadaheadFills == 0 {
		t.Fatal("readahead cell issued no fills")
	}
	if on.P50MS >= off.P50MS {
		t.Fatalf("readahead p50 %.2fms not better than %.2fms", on.P50MS, off.P50MS)
	}
	if on.Cache.HitRate <= off.Cache.HitRate {
		t.Fatalf("readahead hit rate %.2f not better than %.2f", on.Cache.HitRate, off.Cache.HitRate)
	}
}

// The real driver runs the loop in process on the pfs server and
// reports sane numbers.
func TestRealSmoke(t *testing.T) {
	res, err := RunReal(t.TempDir(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	if res.Kernel != "real" || res.Ops != 80 || res.OpsPerSec <= 0 || res.P50MS <= 0 {
		t.Fatalf("implausible result: %+v", res)
	}
	if res.Shards != 8 || res.Pipeline != 0 || res.Readahead != 8 {
		t.Fatalf("default knobs not recorded: %+v", res)
	}
	if res.Cache.Lookups == 0 {
		t.Fatal("no cache traffic recorded")
	}
}

// One loop, two targets: the same cell runs on Patsy and on the pfs
// server, and both count every op and the disk traffic under it (the
// working set is twice the cache, so reads miss). The self-heal cell
// runs the one supervisor on both kernels.
func TestOneLoopBothKernels(t *testing.T) {
	for _, heal := range []bool{false, true} {
		cfg := tiny()
		cfg.CacheBlocks, cfg.SelfHeal = 32, heal
		sim, err := RunSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		real, err := RunReal(t.TempDir(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			kernel string
			res    Result
		}{{"virtual", sim}, {"real", real}} {
			r := c.res
			if r.Kernel != c.kernel || r.Ops != int64(cfg.Clients*cfg.Ops) {
				t.Errorf("%s: kernel %q, %d ops", c.kernel, r.Kernel, r.Ops)
			}
			if r.Cache.Lookups == 0 || r.Volume.ReadReqs+r.Volume.WriteReqs == 0 {
				t.Errorf("%s: no traffic counted: %+v %+v", c.kernel, r.Cache, r.Volume)
			}
			if r.SelfHeal != heal || heal && (r.DetectMS <= 0 || r.MTTRMS <= 0) {
				t.Errorf("%s: self-heal %v: %+v", c.kernel, heal, r)
			}
		}
	}
}

// The real server runs the rebuilding cell: a mirrored member dies
// after the prefill and is rebuilt online under the client load, and
// the cell ends with the array whole.
func TestRealRebuildCell(t *testing.T) {
	cfg := tiny()
	cfg.Placement, cfg.Rebuild = "mirrored", true
	res, err := RunReal(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kernel != "real" || !res.Degraded || !res.Rebuild || res.RebuildMS <= 0 || res.Ops != 80 {
		t.Fatalf("rebuilding cell: %+v", res)
	}
}

// The JSON file round-trips.
func TestFileRoundTrip(t *testing.T) {
	f := &File{Bench: 3, Runs: []Result{{Kernel: "virtual", Clients: 1, OpsPerSec: 42}}}
	data, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var got File
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Bench != 3 || len(got.Runs) != 1 || got.Runs[0].OpsPerSec != 42 {
		t.Fatalf("round trip: %+v", got)
	}
}

// The supervised-repair cell serves through a member death in
// process: every op succeeds, the supervisor closes the incident and
// the array ends whole (run refuses otherwise). The member dies a
// quarter of the way through the ops, so even a short cell has load
// left to detect it under.
func TestRealSelfHealCell(t *testing.T) {
	cfg := tiny()
	cfg.SelfHeal = true
	res, err := RunReal(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.SelfHeal || res.Placement != "mirrored" || res.Ops != 80 || res.MTTRMS <= 0 {
		t.Fatalf("self-heal cell: %+v", res)
	}
}

// Patsy runs the self-heal cell on the server's supervisor, and the
// virtual kernel makes the whole repair arc deterministic per seed:
// two runs agree to the last field, detection and MTTR included.
func TestSimSelfHealDeterministic(t *testing.T) {
	cfg := tiny()
	cfg.SelfHeal = true
	a, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("virtual self-heal runs differ:\n%+v\n%+v", a, b)
	}
	if a.Kernel != "virtual" || !a.SelfHeal || a.Ops != 80 || a.DetectMS <= 0 || a.MTTRMS <= a.DetectMS {
		t.Fatalf("self-heal cell: %+v", a)
	}
}
