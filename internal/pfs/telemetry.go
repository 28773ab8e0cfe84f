package pfs

// This file binds the whole PFS stack into the telemetry registry:
// every component's statistics objects become stable Prometheus
// families, and the Server grows the admin HTTP endpoint (/metrics,
// /healthz, /statusz, pprof). The registry builder is exported and
// component-wise (Observables) so tests can wire a deterministic
// VKernel assembly through the exact same families the production
// server exports.
//
// Scrape safety: collectors run on plain HTTP goroutines, so only
// atomic counters and plain-mutex statistics objects may be read
// here. In particular the driver's live queue length is kernel-mutex
// state and is deliberately NOT exported — the queue-depth histogram
// (observed by the driver's own task) carries that signal instead.

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/device"
	"repro/internal/ffs"
	"repro/internal/fsys"
	"repro/internal/health"
	"repro/internal/lfs"
	"repro/internal/nfs"
	"repro/internal/sched"
	"repro/internal/stack"
	"repro/internal/telemetry"
	"repro/internal/volume"
)

// Observables lists the components a metrics registry exports. Any
// field may be nil (or empty); its families are simply absent.
type Observables struct {
	Cache    *cache.Cache
	FS       *fsys.FS
	NFS      *nfs.Server
	Array    *volume.Array
	Drivers  []device.Driver
	Spares   []device.Driver // by pool slot; nil once promoted
	Fault    *device.FaultPlan
	Recovery *stack.RecoveryReport
	Tracer   *telemetry.Tracer
	Monitor  *health.Monitor
}

// NewRegistry builds the PFS metrics registry over o. Family names
// and label sets are a stable interface (the golden test pins them);
// add, don't rename.
func NewRegistry(o Observables) *telemetry.Registry {
	reg := telemetry.NewRegistry()
	reg.AddGaugeFunc("pfs_build_info",
		"Constant 1, labelled with the Go runtime version.",
		telemetry.Labels{"go": runtime.Version()},
		func() float64 { return 1 })

	if c := o.Cache; c != nil {
		registerCache(reg, c)
	}
	if fs := o.FS; fs != nil {
		registerFS(reg, fs)
	}
	if n := o.NFS; n != nil {
		registerNFS(reg, n)
	}
	if a := o.Array; a != nil {
		registerArray(reg, a)
	}
	// A device series follows its physical driver: after a promotion
	// d<m> keeps reading the retired driver and s<j> the promoted one.
	for i, drv := range o.Drivers {
		registerDriver(reg, fmt.Sprintf("d%d", i), drv.DriverStats())
	}
	for j, drv := range o.Spares {
		if drv != nil {
			registerDriver(reg, fmt.Sprintf("s%d", j), drv.DriverStats())
		}
	}
	if a := o.Array; a != nil {
		for i, sub := range a.Subs() {
			switch m := sub.(type) {
			case *lfs.LFS:
				registerLFS(reg, fmt.Sprintf("d%d", i), m.LogStats())
			case *ffs.FFS:
				registerFFS(reg, fmt.Sprintf("d%d", i), m.IOStats())
			}
		}
	}
	if p := o.Fault; p != nil {
		registerFault(reg, p)
	}
	if m := o.Monitor; m != nil {
		registerHealth(reg, m)
	}
	if a := o.Array; a != nil && a.SpareSlots() > 0 {
		registerSpares(reg, a)
	}
	if rs := o.Recovery; rs != nil {
		registerRecovery(reg, rs)
	}
	if arr := o.Array; arr != nil {
		// Staging copies are counted where a layout copies payload
		// into a buffer of its own instead of scatter-gathering from
		// the cache frame (short blocks, writes that failed
		// mid-flush); on clustered transfers this stays ~0.
		reg.AddCounterFunc("pfs_io_staging_copy_bytes_total",
			"Bytes copied through staging buffers on the data paths instead of scatter-gathered.", nil,
			func() float64 { return float64(arr.StagedCopyBytes()) })
	}
	o.Tracer.Register(reg)
	return reg
}

func registerCache(reg *telemetry.Registry, c *cache.Cache) {
	st := c.CacheStats()
	reg.AddCounter("pfs_cache_lookups_total", "Block cache lookups.", nil, st.Lookups)
	reg.AddCounter("pfs_cache_hits_total", "Block cache hits.", nil, st.Hits)
	reg.AddCounter("pfs_cache_evictions_total", "Clean frames evicted for reuse.", nil, st.Evictions)
	reg.AddCounter("pfs_cache_flushed_blocks_total", "Dirty blocks written out by the flusher.", nil, st.FlushedBlocks)
	reg.AddCounter("pfs_cache_flush_jobs_total", "Flush jobs issued (multi-block writes count once).", nil, st.FlushJobs)
	reg.AddCounter("pfs_cache_saved_writes_total", "Dirty blocks discarded before any flush (the UPS write-saving policy's yield).", nil, st.SavedWrites)
	reg.AddCounter("pfs_cache_pressure_waits_total", "Allocations that had to wait for the flusher to free frames.", nil, st.PressureWaits)
	reg.AddCounter("pfs_cache_nvram_waits_total", "Writes that waited for NVRAM (dirty-bound) headroom.", nil, st.NVRAMWaits)
	reg.AddCounter("pfs_cache_readahead_fills_total", "Frames claimed by readahead fills.", nil, st.ReadaheadFills)
	reg.AddGaugeFunc("pfs_cache_capacity_blocks", "Configured cache size in blocks.", nil,
		func() float64 { return float64(c.Capacity()) })
	reg.AddGaugeFunc("pfs_cache_nvram_limit_blocks", "Battery-backed dirty-block bound (0 = unbounded).", nil,
		func() float64 { return float64(c.MaxDirtyBlocks()) })
	reg.AddGaugeFunc("pfs_cache_dirty_blocks", "Dirty (NVRAM-parked) blocks right now.", nil,
		func() float64 { return float64(c.DirtyCount()) })
	reg.AddGaugeFunc("pfs_cache_dirty_highwater_blocks", "High-water mark of dirty blocks.", nil,
		func() float64 { return float64(st.DirtyHW.Value()) })
	reg.AddGaugeFunc("pfs_cache_powered_off", "1 after a (simulated) power cut froze the cache.", nil,
		func() float64 { return boolGauge(c.Off()) })
	for i := 0; i < c.Shards(); i++ {
		i := i
		reg.AddGaugeFunc("pfs_cache_shard_dirty_blocks", "Dirty blocks per cache shard.",
			telemetry.Labels{"shard": strconv.Itoa(i)},
			func() float64 { return float64(c.ShardDirty(i)) })
	}
	if il := c.Intents(); il != nil {
		reg.AddGaugeFunc("pfs_intent_log_depth", "Unretired intents in the metadata intent ring.", nil,
			func() float64 { return float64(il.Len()) })
		reg.AddGaugeFunc("pfs_intent_log_capacity", "Intent ring capacity (pressure trips at 3/4).", nil,
			func() float64 { return float64(il.Cap()) })
		reg.AddCounterFunc("pfs_intent_recorded_total", "Intents ever recorded (retired or not).", nil,
			func() float64 { return float64(il.Total()) })
	}
}

func registerFS(reg *telemetry.Registry, fs *fsys.FS) {
	st := fs.FSStats()
	reg.AddCounter("pfs_fs_opens_total", "File opens.", nil, st.Opens)
	reg.AddCounter("pfs_fs_closes_total", "File closes.", nil, st.Closes)
	reg.AddCounter("pfs_fs_reads_total", "Read calls.", nil, st.Reads)
	reg.AddCounter("pfs_fs_writes_total", "Write calls.", nil, st.Writes)
	reg.AddCounter("pfs_fs_read_bytes_total", "Bytes read.", nil, st.BytesRead)
	reg.AddCounter("pfs_fs_written_bytes_total", "Bytes written.", nil, st.BytesWritten)
	reg.AddCounter("pfs_fs_creates_total", "Files created.", nil, st.Creates)
	reg.AddCounter("pfs_fs_removes_total", "Files removed.", nil, st.Removes)
	reg.AddCounter("pfs_fs_read_lookups_total", "Block lookups by file reads (the read-hit-rate denominator).", nil, st.ReadLookups)
	reg.AddCounter("pfs_fs_read_hits_total", "File-read block lookups served from the cache.", nil, st.ReadHits)
	reg.AddCounter("pfs_readahead_batches_total", "Readahead batches issued.", nil, st.Readaheads)
	reg.AddCounter("pfs_readahead_stream_verdicts_total", "Sequential-stream verdicts by the readahead detector.", nil, st.RAStreams)
	reg.AddCounter("pfs_readahead_random_verdicts_total", "Broken-sequence (random) verdicts by the readahead detector.", nil, st.RARandoms)
	reg.AddCounter("pfs_intent_forced_syncs_total", "Syncs forced by intent-ring pressure.", nil, st.IntentSyncs)
}

func registerNFS(reg *telemetry.Registry, n *nfs.Server) {
	st := n.ServerStats()
	reg.AddGroup("pfs_nfs_calls_total", "NFS calls by procedure.", "op", nil, st.Calls)
	reg.AddCounter("pfs_nfs_errors_total", "NFS calls answered with a non-OK status.", nil, st.Errors)
	reg.AddIntHistogram("pfs_nfs_pipeline_depth", "Per-connection pipeline depth observed at each admission.", nil, st.Depth)
	for i := 0; i < nfs.NumProcs; i++ {
		reg.AddHistogramSummary("pfs_nfs_latency_seconds",
			"NFS call latency (admission to reply) by procedure.",
			telemetry.Labels{"op": nfs.ProcName(uint32(i))}, st.Latency[i])
	}
	reg.AddGaugeFunc("pfs_nfs_connections", "Open client connections.", nil,
		func() float64 { return float64(n.Connections()) })
	reg.AddGaugeFunc("pfs_nfs_inflight_calls", "Calls admitted but not yet replied.", nil,
		func() float64 { return float64(n.InflightCalls()) })
	reg.AddGaugeFunc("pfs_nfs_draining", "1 while the server drains for graceful shutdown.", nil,
		func() float64 { return boolGauge(n.Draining()) })
}

func registerArray(reg *telemetry.Registry, a *volume.Array) {
	reg.AddGaugeFunc("pfs_volume_width", "Disk-array width (member count).", nil,
		func() float64 { return float64(a.Width()) })
	reg.AddGroup("pfs_volume_read_blocks_total", "Blocks routed to each array member by reads.", "member", nil, a.ReadGroup())
	reg.AddGroup("pfs_volume_write_blocks_total", "Blocks routed to each array member by writes.", "member", nil, a.WriteGroup())
	reg.AddCounter("pfs_volume_syncs_total", "Array-wide sync fan-outs.", nil, a.SyncCounter())
	// The member-loss families exist only where member loss is
	// survivable; non-redundant assemblies keep their family set (and
	// so their exposition) unchanged.
	if p := a.Placement(); p == volume.PlacementMirrored || p == volume.PlacementParity {
		reg.AddGaugeFunc("pfs_volume_degraded", "1 while a member is dead and its share is served from redundancy.", nil,
			func() float64 { return boolGauge(a.Degraded()) })
		reg.AddGaugeFunc("pfs_volume_dead_member", "Index of the dead member (-1 when healthy).", nil,
			func() float64 { return float64(a.DeadMember()) })
		reg.AddCounterFunc("pfs_volume_degraded_reads_total", "Block reads served by redundancy (mirror partner or parity reconstruction).", nil,
			func() float64 { return float64(a.DegradedReads()) })
		reg.AddGaugeFunc("pfs_volume_rebuild_done_files", "Files already copied by the current (or last) online rebuild.", nil,
			func() float64 { done, _ := a.RebuildProgress(); return float64(done) })
		reg.AddGaugeFunc("pfs_volume_rebuild_total_files", "Files the current (or last) online rebuild covers.", nil,
			func() float64 { _, total := a.RebuildProgress(); return float64(total) })
	}
}

func registerDriver(reg *telemetry.Registry, member string, ds *device.DriverStats) {
	lbl := telemetry.Labels{"member": member}
	reg.AddCounter("pfs_device_reads_total", "Read requests completed by the disk driver.", lbl, ds.Reads)
	reg.AddCounter("pfs_device_writes_total", "Write requests completed by the disk driver.", lbl, ds.Writes)
	reg.AddCounter("pfs_device_read_blocks_total", "Blocks read by the disk driver.", lbl, ds.BlocksRead)
	reg.AddCounter("pfs_device_written_blocks_total", "Blocks written by the disk driver.", lbl, ds.BlocksWritten)
	reg.AddCounter("pfs_device_disk_cache_hits_total", "Requests absorbed by the on-disk cache model.", lbl, ds.DiskCacheHits)
	reg.AddCounter("pfs_device_vectored_reads_total", "Scatter-gather (preadv-style) read requests completed.", lbl, ds.VecReads)
	reg.AddCounter("pfs_device_vectored_writes_total", "Gather (pwritev-style) write requests completed.", lbl, ds.VecWrites)
	reg.AddIntHistogram("pfs_device_queue_depth", "Driver queue depth sampled at each request arrival.", lbl, ds.QueueHist)
	reg.AddMoments("pfs_device_wait_seconds", "Time requests spent queued in the driver.", lbl, ds.WaitMS, 1e-3)
	reg.AddMoments("pfs_device_service_seconds", "Device service time per request.", lbl, ds.ServiceMS, 1e-3)
	reg.AddGaugeFunc("pfs_device_blocks_per_request", "Mean transfer size in blocks — the I/O clustering yield.", lbl,
		ds.BlocksPerRequest)
	reg.AddCounter("pfs_device_io_errors_total", "Requests failed with a transient I/O error.", lbl, ds.IOErrors)
	reg.AddCounter("pfs_device_dead_errors_total", "Requests rejected because the member's disk is dead.", lbl, ds.DeadErrors)
}

// logStats collects the log counters of the array's LFS members, in
// member order (none for FFS members). Safe from any goroutine: the
// member table is an atomic snapshot and the counters are atomics.
func logStats(a *volume.Array) []lfs.LogStats {
	var out []lfs.LogStats
	for _, sub := range a.Subs() {
		if l, ok := sub.(*lfs.LFS); ok {
			out = append(out, l.LogStats())
		}
	}
	return out
}

// registerLFS exports one member's log counters. Segments written,
// partial and cleaned per cache flush job, and log blocks written per
// flushed block, are the ratios that show a write path burning
// segments — the barrier-per-flush pathology went unseen for a dozen
// PRs because none of this was exported.
func registerLFS(reg *telemetry.Registry, member string, ls lfs.LogStats) {
	lbl := telemetry.Labels{"member": member}
	reg.AddCounter("pfs_lfs_segs_written_total", "Log segments retired to disk (full, or closed early by a sync or the cleaner).", lbl, ls.SegsWritten)
	reg.AddCounter("pfs_lfs_partial_segs_total", "Segments retired before they were full.", lbl, ls.PartialSegs)
	reg.AddCounter("pfs_lfs_segs_cleaned_total", "Segments reclaimed by the log cleaner.", lbl, ls.SegsCleaned)
	reg.AddCounter("pfs_lfs_live_blocks_copied_total", "Live blocks the cleaner copied to the log head.", lbl, ls.LiveBlocksCopied)
	reg.AddCounter("pfs_lfs_log_blocks_written_total", "Blocks appended to the log (data, metadata and cleaner copies; summaries excluded).", lbl, ls.LogBlocksWritten)
	reg.AddMoments("pfs_lfs_cleaned_utilization", "Live fraction of the segments the cleaner picked.", lbl, ls.CleanedUtilization, 1)
}

// registerFFS exports one FFS member's I/O counters.
func registerFFS(reg *telemetry.Registry, member string, st ffs.IOStats) {
	lbl := telemetry.Labels{"member": member}
	reg.AddCounter("pfs_ffs_data_reads_total", "Data blocks the FFS member read.", lbl, st.DataReads)
	reg.AddCounter("pfs_ffs_data_writes_total", "Data blocks the FFS member wrote in place.", lbl, st.DataWrites)
	reg.AddCounter("pfs_ffs_inode_writes_total", "Synchronous inode-block writes by the FFS member.", lbl, st.InodeWrites)
}

// registerHealth exports the health monitor's per-member verdicts and
// evidence windows. Present only on self-healing servers.
func registerHealth(reg *telemetry.Registry, m *health.Monitor) {
	for i := 0; i < m.Members(); i++ {
		i := i
		lbl := telemetry.Labels{"member": fmt.Sprintf("d%d", i)}
		reg.AddGaugeFunc("pfs_health_state", "Member health verdict (0 healthy, 1 suspect, 2 probation, 3 dead).", lbl,
			func() float64 { return float64(m.Verdict(i)) })
		reg.AddGaugeFunc("pfs_health_window_errors", "Transient I/O errors in the member's evidence window.", lbl,
			func() float64 { return float64(m.States()[i].WindowErrs) })
	}
	reg.AddCounterFunc("pfs_health_confirmed_deaths_total", "Member deaths confirmed by the health monitor (manual overrides included).", nil,
		func() float64 { return float64(m.ConfirmedDeaths()) })
}

// registerSpares exports the hot-spare pool. Present only when the
// server attached spares.
func registerSpares(reg *telemetry.Registry, a *volume.Array) {
	reg.AddGaugeFunc("pfs_spare_pool_size", "Idle spares in the hot-spare pool.", nil,
		func() float64 { return float64(a.SpareCount()) })
	reg.AddCounterFunc("pfs_spare_promotions_total", "Spares consumed by promotions (auto or manual).", nil,
		func() float64 { return float64(a.SparePromotions()) })
	reg.AddCounterFunc("pfs_spare_refusals_total", "Promotions refused: empty pool, concurrent maintenance, or a second fault.", nil,
		func() float64 { return float64(a.SpareRefusals()) })
}

func registerFault(reg *telemetry.Registry, p *device.FaultPlan) {
	kinds := []struct {
		kind string
		pick func(r, w, t, c int64) int64
	}{
		{"read_error", func(r, _, _, _ int64) int64 { return r }},
		{"write_error", func(_, w, _, _ int64) int64 { return w }},
		{"torn_write", func(_, _, t, _ int64) int64 { return t }},
		{"cut_reject", func(_, _, _, c int64) int64 { return c }},
	}
	for _, k := range kinds {
		k := k
		reg.AddCounterFunc("pfs_fault_injected_total", "Faults injected at the driver/hardware seam, by kind.",
			telemetry.Labels{"kind": k.kind},
			func() float64 { return float64(k.pick(p.Injected())) })
	}
	reg.AddCounterFunc("pfs_fault_intercepted_total", "Requests seen by the fault interceptor.", nil,
		func() float64 { return float64(p.IOs()) })
	reg.AddGaugeFunc("pfs_fault_power_cut", "1 after the plan's power cut tripped.", nil,
		func() float64 { return boolGauge(p.HasCut()) })
}

func registerRecovery(reg *telemetry.Registry, rs *stack.RecoveryReport) {
	// A recovery report is immutable once the mount returns; these
	// gauges describe what the last recovery mount repaired and what
	// its NVRAM replay restored.
	reg.AddGaugeFunc("pfs_recovery_rolled_segments", "Post-checkpoint log segments replayed by roll-forward.", nil,
		func() float64 { return float64(rs.RolledSegments) })
	reg.AddGaugeFunc("pfs_recovery_data_blocks", "File data blocks recovered past the last durable state.", nil,
		func() float64 { return float64(rs.DataBlocks) })
	reg.AddGaugeFunc("pfs_recovery_inode_records", "Inode records recovered from the log.", nil,
		func() float64 { return float64(rs.InodeRecords) })
	reg.AddGaugeFunc("pfs_recovery_orphan_blocks", "Rolled-over blocks whose owner never became durable.", nil,
		func() float64 { return float64(rs.OrphanBlocks) })
	reg.AddGaugeFunc("pfs_recovery_torn_tail", "1 when recovery stopped at a torn write.", nil,
		func() float64 { return boolGauge(rs.TornTail) })
	reg.AddGaugeFunc("pfs_recovery_repairs", "Repairs applied by the recovery mount.", nil,
		func() float64 { return float64(len(rs.Repairs)) })
	reg.AddGaugeFunc("pfs_recovery_parity_records", "Battery-backed partial-parity records the recovery re-applied.", nil,
		func() float64 { return float64(rs.ParityApplied) })
	reg.AddGaugeFunc("pfs_recovery_survivors_replayed", "NVRAM survivor blocks the recovery wrote back.", nil,
		func() float64 { return float64(rs.Replayed) })
	reg.AddGaugeFunc("pfs_recovery_intents_replayed", "Namespace intents the recovery re-executed.", nil,
		func() float64 { return float64(rs.IntentsApplied) })
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Registry builds the production registry over this server's
// components. Call after ServeNFS so the NFS families are present.
func (s *Server) Registry() *telemetry.Registry {
	drvs, spares := s.Members.Slots()
	return NewRegistry(Observables{
		Cache:    s.Cache,
		FS:       s.FS,
		NFS:      s.net,
		Array:    s.Array,
		Drivers:  drvs,
		Spares:   spares,
		Fault:    s.Fault,
		Recovery: s.Recovery,
		Tracer:   s.Tracer,
		Monitor:  s.Members.Monitor,
	})
}

// ServeAdmin starts the admin HTTP endpoint on addr (":0" picks a
// free port): /metrics, /healthz, /statusz (+?slow=1), /debug/pprof.
// Returns the bound address. Start it after ServeNFS so the NFS
// families are registered.
func (s *Server) ServeAdmin(addr string) (string, error) {
	reg := s.Registry()
	start := time.Now()
	reg.AddGaugeFunc("pfs_uptime_seconds", "Seconds since the admin endpoint started.", nil,
		func() float64 { return time.Since(start).Seconds() })
	adm := telemetry.NewServer(reg, s.Tracer, s.Health, s.renderStatusz)
	if s.Members.Monitor != nil {
		adm.SetHealthDetail(s.healthDetail)
	}
	bound, err := adm.Start(addr)
	if err != nil {
		return "", err
	}
	s.admin = adm
	return bound, nil
}

// healthTimeout bounds the /healthz root-stat probe: the kernel and
// its flusher tasks are live if a namespace operation completes.
const healthTimeout = 2 * time.Second

// Health reports nil when the server is live: power on, root volume
// mounted, not draining, and a root stat completes on a kernel task
// within the probe timeout (which exercises the scheduler and the
// cache paths a hung flusher would stall).
func (s *Server) Health() error {
	if s.Cache.Off() {
		return errors.New("cache powered off")
	}
	if s.Vol == nil {
		return errors.New("no volume mounted")
	}
	if s.net != nil && s.net.Draining() {
		return errors.New("draining")
	}
	done := make(chan error, 1)
	s.K.Go("pfs.health", func(t sched.Task) {
		_, err := s.Vol.StatByID(t, s.Vol.Root())
		done <- err
	})
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("root stat: %w", err)
		}
		return nil
	case <-time.After(healthTimeout):
		return errors.New("root stat probe timed out")
	}
}

// renderStatusz is the /statusz body: a configuration header, the
// live gauges the registry exports, and the registry's exposition.
func (s *Server) renderStatusz() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pfs status\n")
	fmt.Fprintf(&b, "  array: width=%d cluster_run=%d\n", s.Array.Width(), s.cluster)
	if s.Array.Degraded() {
		done, total := s.Array.RebuildProgress()
		fmt.Fprintf(&b, "  DEGRADED: member %d dead, degraded_reads=%d rebuild=%d/%d\n",
			s.Array.DeadMember(), s.Array.DegradedReads(), done, total)
	}
	if mnt := s.Array.Maintenance(); mnt != "" {
		fmt.Fprintf(&b, "  maintenance: %s\n", mnt)
	}
	if s.Members.Monitor != nil {
		b.WriteString("  health:")
		for _, ms := range s.Members.Monitor.States() {
			fmt.Fprintf(&b, " %s=%s(errs=%d consec=%d)",
				ms.Name, ms.Verdict, ms.WindowErrs, ms.Consec)
		}
		fmt.Fprintf(&b, " deaths=%d\n", s.Members.Monitor.ConfirmedDeaths())
	}
	if s.Array.SpareSlots() > 0 {
		fmt.Fprintf(&b, "  spares: idle=%d promoted=%d refused=%d origins=%v\n",
			s.Array.SpareCount(), s.Array.SparePromotions(), s.Array.SpareRefusals(), s.Array.Origins())
	}
	for _, ev := range s.HealEvents() {
		fmt.Fprintf(&b, "  heal: member=%d spare=%d detect_ms=%.1f mttr_ms=%.1f mismatches=%d err=%q\n",
			ev.Member, ev.Spare, ev.DetectMS, ev.MTTRMS, ev.ScrubMismatches, ev.Err)
	}
	fmt.Fprintf(&b, "  cache: blocks=%d shards=%d dirty=%d nvram_limit=%d off=%v\n",
		s.Cache.Capacity(), s.Cache.Shards(), s.Cache.DirtyCount(), s.Cache.MaxDirtyBlocks(), s.Cache.Off())
	if il := s.Cache.Intents(); il != nil {
		fmt.Fprintf(&b, "  intent log: depth=%d/%d recorded=%d\n", il.Len(), il.Cap(), il.Total())
	}
	if logs := logStats(s.Array); len(logs) > 0 {
		var segs, partial, cleaned, blocks int64
		for _, ls := range logs {
			segs += ls.SegsWritten.Value()
			partial += ls.PartialSegs.Value()
			cleaned += ls.SegsCleaned.Value()
			blocks += ls.LogBlocksWritten.Value()
		}
		cs := s.Cache.CacheStats()
		amp := 0.0
		if fb := cs.FlushedBlocks.Value(); fb > 0 {
			amp = float64(blocks) / float64(fb)
		}
		fmt.Fprintf(&b, "  log: segs_written=%d partial=%d cleaned=%d log_blocks=%d flush_jobs=%d write_amplification=%.2f (log blocks per flushed block)\n",
			segs, partial, cleaned, blocks, cs.FlushJobs.Value(), amp)
	}
	if s.net != nil {
		fmt.Fprintf(&b, "  nfs: addr=%s conns=%d inflight=%d draining=%v\n",
			s.net.Addr(), s.net.Connections(), s.net.InflightCalls(), s.net.Draining())
	}
	if s.Fault != nil {
		r, w, torn, rej := s.Fault.Injected()
		fmt.Fprintf(&b, "  faults: intercepted=%d read_errs=%d write_errs=%d torn=%d cut=%v rejected=%d\n",
			s.Fault.IOs(), r, w, torn, s.Fault.HasCut(), rej)
	}
	if r := s.Recovery; r != nil {
		fmt.Fprintf(&b, "  recovery: segments=%d data_blocks=%d inodes=%d orphans=%d torn_tail=%v repairs=%d parity_records=%d survivors_replayed=%d intents_replayed=%d\n",
			r.RolledSegments, r.DataBlocks, r.InodeRecords, r.OrphanBlocks, r.TornTail, len(r.Repairs),
			r.ParityApplied, r.Replayed, r.IntentsApplied)
	}
	b.WriteString("\nstatistics\n")
	_ = s.Registry().WritePrometheus(&b)
	return b.String()
}
