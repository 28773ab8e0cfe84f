package pfs

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fsys"
	"repro/internal/nfs"
	"repro/internal/patsy"
	"repro/internal/sched"
)

// The exported family set is a stable interface: every family the
// registry emits for a full simulator assembly (array of 2, sharded
// cache, intent log; no NFS front-end, fault plan or tracer), with
// its type. Renames break dashboards — add, don't rename.
var goldenSimFamilies = map[string]string{
	"pfs_build_info":                      "gauge",
	"pfs_cache_lookups_total":             "counter",
	"pfs_cache_hits_total":                "counter",
	"pfs_cache_evictions_total":           "counter",
	"pfs_cache_flushed_blocks_total":      "counter",
	"pfs_cache_flush_jobs_total":          "counter",
	"pfs_cache_saved_writes_total":        "counter",
	"pfs_cache_pressure_waits_total":      "counter",
	"pfs_cache_nvram_waits_total":         "counter",
	"pfs_cache_readahead_fills_total":     "counter",
	"pfs_cache_capacity_blocks":           "gauge",
	"pfs_cache_nvram_limit_blocks":        "gauge",
	"pfs_cache_dirty_blocks":              "gauge",
	"pfs_cache_dirty_highwater_blocks":    "gauge",
	"pfs_cache_powered_off":               "gauge",
	"pfs_cache_shard_dirty_blocks":        "gauge",
	"pfs_intent_log_depth":                "gauge",
	"pfs_intent_log_capacity":             "gauge",
	"pfs_intent_recorded_total":           "counter",
	"pfs_intent_forced_syncs_total":       "counter",
	"pfs_fs_opens_total":                  "counter",
	"pfs_fs_closes_total":                 "counter",
	"pfs_fs_reads_total":                  "counter",
	"pfs_fs_writes_total":                 "counter",
	"pfs_fs_read_bytes_total":             "counter",
	"pfs_fs_written_bytes_total":          "counter",
	"pfs_fs_creates_total":                "counter",
	"pfs_fs_removes_total":                "counter",
	"pfs_readahead_batches_total":         "counter",
	"pfs_readahead_stream_verdicts_total": "counter",
	"pfs_readahead_random_verdicts_total": "counter",
	"pfs_io_staging_copy_bytes_total":     "counter",
	"pfs_volume_width":                    "gauge",
	"pfs_volume_read_blocks_total":        "counter",
	"pfs_volume_write_blocks_total":       "counter",
	"pfs_volume_syncs_total":              "counter",
	"pfs_device_reads_total":              "counter",
	"pfs_device_writes_total":             "counter",
	"pfs_device_read_blocks_total":        "counter",
	"pfs_device_written_blocks_total":     "counter",
	"pfs_device_disk_cache_hits_total":    "counter",
	"pfs_device_vectored_reads_total":     "counter",
	"pfs_device_vectored_writes_total":    "counter",
	"pfs_device_queue_depth":              "histogram",
	"pfs_device_wait_seconds":             "summary",
	"pfs_device_service_seconds":          "summary",
	"pfs_device_blocks_per_request":       "gauge",
	"pfs_device_io_errors_total":          "counter",
	"pfs_device_dead_errors_total":        "counter",
	"pfs_device_slow_ios_total":           "counter",
	"pfs_lfs_segs_written_total":          "counter",
	"pfs_lfs_partial_segs_total":          "counter",
	"pfs_lfs_segs_cleaned_total":          "counter",
	"pfs_lfs_live_blocks_copied_total":    "counter",
	"pfs_lfs_log_blocks_written_total":    "counter",
	"pfs_lfs_cleaned_utilization":         "summary",
}

// parseFamilies extracts name -> type from # TYPE lines.
func parseFamilies(body string) map[string]string {
	out := make(map[string]string)
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		var name, typ string
		if _, err := fmt.Sscanf(sc.Text(), "# TYPE %s %s", &name, &typ); err == nil {
			out[name] = typ
		}
	}
	return out
}

// metricValue finds the value of one exact series in the exposition.
func metricValue(t *testing.T, body, series string) float64 {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, series+" ") {
			v, err := strconv.ParseFloat(line[len(series)+1:], 64)
			if err != nil {
				t.Fatalf("bad value in %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("series %q not found in:\n%s", series, body)
	return 0
}

// TestMetricsGoldenFamilies pins the exported family set and label
// shapes over a deterministic VKernel workload: same components as
// the production server, no wall clock anywhere.
func TestMetricsGoldenFamilies(t *testing.T) {
	sys, err := patsy.Build(patsy.Config{
		Seed:         1,
		ArrayVolumes: 2,
		DiskModel:    "hp97560",
		QueueSched:   "clook",
		CacheBlocks:  256,
		Replace:      "lru",
		Flush:        cache.UPS(),
		SegBlocks:    64,
		Cleaner:      "cost-benefit",
		Layout:       "lfs",
		CacheShards:  2,
		IntentLog:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var runErr error
	sys.K.Go("workload", func(task sched.Task) {
		defer sys.K.Stop()
		if runErr = sys.Init(task); runErr != nil {
			return
		}
		v := sys.FS.Vol(1)
		var h *fsys.Handle
		if h, runErr = v.EnsureFile(task, "/golden", 0, false); runErr != nil {
			return
		}
		for blk := int64(0); blk < 32; blk++ {
			if runErr = v.WriteAt(task, h, blk*core.BlockSize, nil, core.BlockSize); runErr != nil {
				return
			}
		}
		if _, runErr = v.ReadAt(task, h, 0, nil, 8*core.BlockSize); runErr != nil {
			return
		}
		v.Close(task, h)
		runErr = sys.FS.SyncAll(task)
	})
	if err := sys.K.Run(); err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}

	reg := NewRegistry(Observables{
		Cache:   sys.Cache,
		FS:      sys.FS,
		Array:   sys.Array,
		Drivers: sys.Drivers,
	})
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	body := b.String()

	got := parseFamilies(body)
	for name, typ := range goldenSimFamilies {
		if got[name] != typ {
			t.Errorf("family %s: got type %q, want %q", name, got[name], typ)
		}
	}
	for name, typ := range got {
		if goldenSimFamilies[name] != typ {
			t.Errorf("unexpected family %s (%s) — extend the golden set", name, typ)
		}
	}

	// Label shapes: per-member and per-shard series.
	for _, series := range []string{
		`pfs_volume_read_blocks_total{member="d0"}`,
		`pfs_volume_write_blocks_total{member="d1"}`,
		`pfs_device_reads_total{member="d0"}`,
		`pfs_device_written_blocks_total{member="d1"}`,
		`pfs_cache_shard_dirty_blocks{shard="0"}`,
		`pfs_cache_shard_dirty_blocks{shard="1"}`,
		`pfs_device_queue_depth_bucket{le="+Inf",member="d0"}`,
		`pfs_device_wait_seconds{member="d1",quantile="0.5"}`,
		`pfs_lfs_segs_written_total{member="d0"}`,
		`pfs_lfs_log_blocks_written_total{member="d1"}`,
		`pfs_lfs_cleaned_utilization_count{member="d1"}`,
	} {
		if !strings.Contains(body, series+" ") {
			t.Errorf("missing series %s", series)
		}
	}

	// The quiescent exposition is a pure function of the stats
	// objects: the values match the sources exactly, and a second
	// render is byte-identical.
	cs := sys.Cache.CacheStats()
	if v := metricValue(t, body, "pfs_cache_lookups_total"); v != float64(cs.Lookups.Value()) {
		t.Errorf("lookups: exported %v, source %d", v, cs.Lookups.Value())
	}
	if v := metricValue(t, body, "pfs_fs_writes_total"); v != float64(sys.FS.FSStats().Writes.Value()) {
		t.Errorf("fs writes: exported %v, source %d", v, sys.FS.FSStats().Writes.Value())
	}
	var logBlocks int64
	for _, ls := range logStats(sys.Array) {
		logBlocks += ls.LogBlocksWritten.Value()
	}
	exported := metricValue(t, body, `pfs_lfs_log_blocks_written_total{member="d0"}`) +
		metricValue(t, body, `pfs_lfs_log_blocks_written_total{member="d1"}`)
	if logBlocks < 32 || exported != float64(logBlocks) {
		t.Errorf("log blocks: exported %v, sources %d (32 data blocks were synced)", exported, logBlocks)
	}
	if v := metricValue(t, body, "pfs_volume_width"); v != 2 {
		t.Errorf("width = %v", v)
	}
	// The simulator moves no real bytes, so nothing is staged.
	if v := metricValue(t, body, "pfs_io_staging_copy_bytes_total"); v != 0 {
		t.Errorf("pfs_io_staging_copy_bytes_total = %v in the simulator, want 0", v)
	}
	var b2 strings.Builder
	if err := reg.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b2.String() != body {
		t.Error("second render differs — exposition is not deterministic")
	}
}

// goldenRecoveryFamilies is what a server that came up through a
// recovery mount adds: the layouts' repairs and the battery's replay.
var goldenRecoveryFamilies = map[string]string{
	"pfs_recovery_rolled_segments":    "gauge",
	"pfs_recovery_data_blocks":        "gauge",
	"pfs_recovery_inode_records":      "gauge",
	"pfs_recovery_orphan_blocks":      "gauge",
	"pfs_recovery_torn_tail":          "gauge",
	"pfs_recovery_repairs":            "gauge",
	"pfs_recovery_parity_records":     "gauge",
	"pfs_recovery_survivors_replayed": "gauge",
	"pfs_recovery_intents_replayed":   "gauge",
}

// TestMetricsRecoveryFamilies pins the recovery family set both
// directions and checks each gauge exports its report field.
func TestMetricsRecoveryFamilies(t *testing.T) {
	rs := &RecoveryReport{ParityApplied: 3}
	rs.RolledSegments, rs.Repairs = 2, []string{"re-synced lockstep inode cursors to 9"}
	rs.Replayed, rs.IntentsApplied = 5, 7
	var b strings.Builder
	if err := NewRegistry(Observables{Recovery: rs}).WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	body := b.String()
	got := parseFamilies(body)
	delete(got, "pfs_build_info")
	for name, typ := range goldenRecoveryFamilies {
		if got[name] != typ {
			t.Errorf("family %s: got type %q, want %q", name, got[name], typ)
		}
	}
	for name, typ := range got {
		if goldenRecoveryFamilies[name] != typ {
			t.Errorf("unexpected family %s (%s) — extend the golden set", name, typ)
		}
	}
	for series, want := range map[string]float64{
		"pfs_recovery_rolled_segments":    2,
		"pfs_recovery_repairs":            1,
		"pfs_recovery_parity_records":     3,
		"pfs_recovery_survivors_replayed": 5,
		"pfs_recovery_intents_replayed":   7,
	} {
		if v := metricValue(t, body, series); v != want {
			t.Errorf("%s = %v, want %v", series, v, want)
		}
	}
}

func testServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Path == "" {
		cfg.Path = filepath.Join(t.TempDir(), "pfs.img")
	}
	srv, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func adminGet(t *testing.T, addr, path string) (string, int) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp.StatusCode
}

// TestAdminEndpointEndToEnd drives real NFS traffic through the
// production server and checks the whole admin surface: NFS and
// tracer families on /metrics, health, statusz and the slow-op log.
func TestAdminEndpointEndToEnd(t *testing.T) {
	srv := testServer(t, Config{
		Blocks:          2048,
		Volumes:         2,
		CacheBlocks:     256,
		CacheShards:     2,
		Flush:           cache.UPS(),
		SlowOpThreshold: time.Nanosecond, // every traced op lands in the slow ring
		Fault:           &device.FaultConfig{},
	})
	addr, err := srv.ServeNFS("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	admin, err := srv.ServeAdmin("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if srv.AdminAddr() != admin {
		t.Fatalf("AdminAddr %q != %q", srv.AdminAddr(), admin)
	}

	cl, err := nfs.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	root, _, err := cl.Mount(1)
	if err != nil {
		t.Fatal(err)
	}
	fh, _, err := cl.Create(root, "traced")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16<<10)
	for i := 0; i < 8; i++ {
		if _, err := cl.Write(fh, int64(i)*int64(len(buf)), buf); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Read(fh, 0, len(buf)); err != nil {
		t.Fatal(err)
	}
	cl.Close()
	// The server reaps the closed connection on its own goroutine.
	for deadline := time.Now().Add(5 * time.Second); srv.net.Connections() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d connections still open 5s after the client closed", srv.net.Connections())
		}
	}
	if err := srv.Sync(); err != nil {
		t.Fatal(err)
	}

	body, code := adminGet(t, admin, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		`pfs_nfs_calls_total{op="write"} 8`,
		`pfs_nfs_calls_total{op="read"} 1`,
		`pfs_nfs_latency_seconds{op="write",quantile="0.99"}`,
		"pfs_nfs_pipeline_depth_bucket",
		"pfs_nfs_connections 0",
		"pfs_nfs_draining 0",
		"pfs_op_seconds_bucket",
		`pfs_op_stage_seconds_sum{stage="queue"}`,
		`pfs_op_stage_seconds_sum{stage="cache"}`,
		`pfs_op_stage_seconds_sum{stage="disk"}`,
		"pfs_op_slow_total",
		`pfs_volume_write_blocks_total{member="d0"}`,
		`pfs_fault_injected_total{kind="read_error"} 0`,
		"pfs_fault_power_cut 0",
		"pfs_uptime_seconds",
		"pfs_intent_recorded_total 1",
		"pfs_io_staging_copy_bytes_total",
		`pfs_device_vectored_reads_total{member="d0"}`,
		`pfs_device_vectored_writes_total{member="d0"}`,
		`pfs_lfs_partial_segs_total{member="d0"}`,
		`pfs_lfs_segs_cleaned_total{member="d1"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("missing %q in /metrics", want)
		}
	}

	// Quiescent counters export exactly what the source objects hold.
	v1 := srv.Cache.CacheStats().Lookups.Value()
	body2, _ := adminGet(t, admin, "/metrics")
	v2 := srv.Cache.CacheStats().Lookups.Value()
	got := metricValue(t, body2, "pfs_cache_lookups_total")
	if got < float64(v1) || got > float64(v2) {
		t.Errorf("lookups drifted: exported %v, source [%d, %d]", got, v1, v2)
	}

	if body, code := adminGet(t, admin, "/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz %d: %s", code, body)
	}
	if body, code := adminGet(t, admin, "/statusz"); code != 200 ||
		!strings.Contains(body, "pfs status") || !strings.Contains(body, "nfs: addr=") ||
		!strings.Contains(body, "write_amplification=") {
		t.Fatalf("/statusz %d:\n%s", code, body)
	}
	body, code = adminGet(t, admin, "/statusz?slow=1")
	if code != 200 || !strings.Contains(body, "slow-op log") || !strings.Contains(body, "write") {
		t.Fatalf("/statusz?slow=1 %d:\n%s", code, body)
	}

	if err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestHealthReflectsCrash: a tripped power cut turns /healthz red.
func TestHealthReflectsCrash(t *testing.T) {
	srv := testServer(t, Config{
		Blocks:      2048,
		CacheBlocks: 128,
		Flush:       cache.UPS(),
		Fault:       &device.FaultConfig{},
	})
	if err := srv.Health(); err != nil {
		t.Fatalf("fresh server unhealthy: %v", err)
	}
	srv.Fault.Cut() // trips OnCut -> Cache.PowerOff
	if err := srv.Health(); err == nil {
		t.Fatal("health nil after power cut")
	}
	srv.Crash()
}

// TestConcurrentScrapeHammer races pipelined NFS clients against
// admin scrapes — the data-race gate for every collector.
func TestConcurrentScrapeHammer(t *testing.T) {
	srv := testServer(t, Config{
		Blocks:      4096,
		Volumes:     2,
		CacheBlocks: 256,
		CacheShards: 2,
		Flush:       cache.UPS(),
	})
	addr, err := srv.ServeNFS("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	admin, err := srv.ServeAdmin("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	const clients, opsPer = 4, 100
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			cl, err := nfs.DialPipeline(addr, 4)
			if err != nil {
				errc <- err
				return
			}
			defer cl.Close()
			root, _, err := cl.Mount(1)
			if err != nil {
				errc <- err
				return
			}
			fh, _, err := cl.Create(root, fmt.Sprintf("hammer%d", ci))
			if err != nil {
				errc <- err
				return
			}
			buf := make([]byte, 8<<10)
			for i := 0; i < opsPer; i++ {
				off := int64(i%16) * int64(len(buf))
				if i%4 == 0 {
					if _, err := cl.Read(fh, off, len(buf)); err != nil {
						errc <- err
						return
					}
				} else if _, err := cl.Write(fh, off, buf); err != nil {
					errc <- err
					return
				}
			}
		}(ci)
	}
	done := make(chan struct{})
	var scrapers sync.WaitGroup
	for s := 0; s < 2; s++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, p := range []string{"/metrics", "/statusz?slow=1", "/healthz"} {
					if _, code := adminGet(t, admin, p); code != 200 && code != 503 {
						t.Errorf("%s status %d", p, code)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	scrapers.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsRedundantFamilies pins the member-loss families: they
// appear only for redundant placements (the golden set above proves
// non-redundant assemblies don't grow them), and they move when a
// member dies and reads are served from redundancy.
func TestMetricsRedundantFamilies(t *testing.T) {
	sys, err := patsy.Build(patsy.Config{
		Seed:         1,
		ArrayVolumes: 3,
		Placement:    "mirrored",
		DiskModel:    "hp97560",
		QueueSched:   "clook",
		CacheBlocks:  64,
		Replace:      "lru",
		Flush:        cache.UPS(),
		SegBlocks:    64,
		Cleaner:      "cost-benefit",
		Layout:       "lfs",
	})
	if err != nil {
		t.Fatal(err)
	}
	var runErr error
	sys.K.Go("workload", func(task sched.Task) {
		defer sys.K.Stop()
		if runErr = sys.Init(task); runErr != nil {
			return
		}
		v := sys.FS.Vol(1)
		var h *fsys.Handle
		if h, runErr = v.EnsureFile(task, "/redundant", 0, false); runErr != nil {
			return
		}
		// Overflow the 64-block cache so the post-kill reads miss and
		// actually reach the degraded read path.
		for blk := int64(0); blk < 128; blk++ {
			if runErr = v.WriteAt(task, h, blk*core.BlockSize, nil, core.BlockSize); runErr != nil {
				return
			}
		}
		if runErr = sys.FS.SyncAll(task); runErr != nil {
			return
		}
		if runErr = sys.KillMember(1); runErr != nil {
			return
		}
		if _, runErr = v.ReadAt(task, h, 0, nil, 32*core.BlockSize); runErr != nil {
			return
		}
		v.Close(task, h)
	})
	if err := sys.K.Run(); err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}

	reg := NewRegistry(Observables{
		Cache:   sys.Cache,
		FS:      sys.FS,
		Array:   sys.Array,
		Drivers: sys.Drivers,
	})
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	body := b.String()
	fams := parseFamilies(body)
	for name, typ := range map[string]string{
		"pfs_volume_degraded":             "gauge",
		"pfs_volume_dead_member":          "gauge",
		"pfs_volume_degraded_reads_total": "counter",
		"pfs_volume_rebuild_done_files":   "gauge",
		"pfs_volume_rebuild_total_files":  "gauge",
	} {
		if fams[name] != typ {
			t.Errorf("family %s: got type %q, want %q", name, fams[name], typ)
		}
	}
	if v := metricValue(t, body, "pfs_volume_degraded"); v != 1 {
		t.Errorf("pfs_volume_degraded = %v, want 1", v)
	}
	if v := metricValue(t, body, "pfs_volume_dead_member"); v != 1 {
		t.Errorf("pfs_volume_dead_member = %v, want 1", v)
	}
	if v := metricValue(t, body, "pfs_volume_degraded_reads_total"); v <= 0 {
		t.Errorf("no degraded reads recorded (got %v)", v)
	}
}
