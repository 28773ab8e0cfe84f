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

// The real driver round-trips over loopback TCP and reports sane
// numbers.
func TestRealSmoke(t *testing.T) {
	res, err := RunReal(t.TempDir(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	if res.Kernel != "real" || res.Ops != 80 || res.OpsPerSec <= 0 || res.P50MS <= 0 {
		t.Fatalf("implausible result: %+v", res)
	}
	if res.Shards != 8 || res.Pipeline != 8 || res.Readahead != 8 {
		t.Fatalf("default knobs not recorded: %+v", res)
	}
	if res.Cache.Lookups == 0 {
		t.Fatal("no cache traffic recorded")
	}
	// Degraded and rebuilding cells are the virtual kernel's.
	cfg := tiny()
	cfg.Placement, cfg.Degrade = "mirrored", true
	if _, err := RunReal(t.TempDir(), cfg); err == nil {
		t.Fatal("RunReal ran a degraded cell")
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
