package patsy

import (
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/trace"
)

// smallConfig shrinks the replay rig to test scale: one bus, two
// disks, four volumes, 2 MB cache.
func smallConfig(seed int64, fc cache.FlushConfig) Config {
	cfg := DefaultConfig(seed, fc)
	cfg.Buses = 1
	cfg.DisksPerBus = []int{2}
	cfg.Volumes = 4
	cfg.CacheBlocks = 512
	return cfg
}

// smallTrace generates a down-scaled profile matching the topology.
func smallTrace(name string, seed int64, d time.Duration) []trace.Record {
	p := trace.Profiles()[name]
	p.Volumes = 4
	p.HotVolumes = 1
	p.Clients = 8
	if p.LargeWriters > 4 {
		p.LargeWriters = 4
	}
	p.PreexistingFiles = 40
	return trace.Generate(p, seed, d)
}

func TestRunSmallSimulation(t *testing.T) {
	recs := smallTrace("1a", 7, 90*time.Second)
	rep, err := Run(smallConfig(1, cache.UPS()), "1a", recs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.WallOps == 0 {
		t.Fatal("no operations completed")
	}
	if rep.MeanLatency() <= 0 {
		t.Fatal("zero mean latency")
	}
	if rep.Result.Errors > rep.WallOps/10 {
		t.Fatalf("errors %d of %d", rep.Result.Errors, rep.WallOps)
	}
	if rep.SimTime < 80*time.Second {
		t.Fatalf("simulation ended early at %v", rep.SimTime)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	recs := smallTrace("3", 9, 45*time.Second)
	a, err := Run(smallConfig(5, cache.WriteDelay()), "3", recs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallConfig(5, cache.WriteDelay()), "3", recs)
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanLatency() != b.MeanLatency() || a.WallOps != b.WallOps || a.Flushed != b.Flushed {
		t.Fatalf("same seed diverged: %v/%d/%d vs %v/%d/%d",
			a.MeanLatency(), a.WallOps, a.Flushed,
			b.MeanLatency(), b.WallOps, b.Flushed)
	}
}

func TestUPSWritesLessThanWriteDelay(t *testing.T) {
	// The core write-saving claim: keeping dirty data longer means
	// fewer blocks reach the disks.
	recs := smallTrace("1a", 11, 2*time.Minute)
	ups, err := Run(smallConfig(2, cache.UPS()), "1a", recs)
	if err != nil {
		t.Fatal(err)
	}
	wd, err := Run(smallConfig(2, cache.WriteDelay()), "1a", recs)
	if err != nil {
		t.Fatal(err)
	}
	if ups.Flushed >= wd.Flushed {
		t.Fatalf("UPS flushed %d blocks, write-delay %d; write-saving broken",
			ups.Flushed, wd.Flushed)
	}
}

func TestNVRAMLimitObserved(t *testing.T) {
	recs := smallTrace("1b", 13, time.Minute)
	cfg := smallConfig(3, cache.NVRAMPartial(64)) // tiny NVRAM
	rep, err := Run(cfg, "1b", recs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DirtyHW > 64 {
		t.Fatalf("dirty high water %d exceeded NVRAM size", rep.DirtyHW)
	}
	if rep.NVRAMWaits == 0 {
		t.Fatal("heavy writes never waited for NVRAM drain")
	}
}

func TestFFSLayoutRuns(t *testing.T) {
	cfg := smallConfig(4, cache.WriteDelay())
	cfg.Layout = "ffs"
	recs := smallTrace("2a", 15, 45*time.Second)
	rep, err := Run(cfg, "2a", recs)
	if err != nil {
		t.Fatalf("FFS run: %v", err)
	}
	if rep.WallOps == 0 {
		t.Fatal("no ops on FFS")
	}
}

func TestNaiveDiskModelRuns(t *testing.T) {
	cfg := smallConfig(6, cache.UPS())
	cfg.DiskModel = "naive"
	recs := smallTrace("1a", 17, 45*time.Second)
	rep, err := Run(cfg, "1a", recs)
	if err != nil {
		t.Fatalf("naive run: %v", err)
	}
	if rep.WallOps == 0 {
		t.Fatal("no ops on naive model")
	}
}

func TestBadConfigsRejected(t *testing.T) {
	if _, err := Build(Config{Buses: 2, DisksPerBus: []int{1}}); err == nil {
		t.Fatal("mismatched topology accepted")
	}
	cfg := smallConfig(1, cache.UPS())
	cfg.DiskModel = "warp-drive"
	if _, err := Run(cfg, "x", nil); err == nil {
		t.Fatal("unknown disk model accepted")
	}
	cfg = smallConfig(1, cache.UPS())
	cfg.QueueSched = "magic"
	if _, err := Run(cfg, "x", nil); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
	cfg = smallConfig(1, cache.UPS())
	cfg.Volumes = 0
	if _, err := Build(cfg); err == nil {
		t.Fatal("zero volumes accepted")
	}
}

func TestQueueSchedulerVariants(t *testing.T) {
	recs := smallTrace("1a", 19, 30*time.Second)
	for _, qs := range []string{"fcfs", "clook"} {
		cfg := smallConfig(7, cache.WriteDelay())
		cfg.QueueSched = qs
		rep, err := Run(cfg, "1a", recs)
		if err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		if rep.WallOps == 0 {
			t.Fatalf("%s: no ops", qs)
		}
	}
}
