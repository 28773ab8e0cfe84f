package main

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/pfs"
	"repro/internal/sched"
	"repro/internal/telemetry"
)

// perLayer lists the traced run's metrics, one group per layer of the
// architecture. They carry no bound: they explain a move of an
// end-to-end metric, they do not gate. Every workload reports every
// name; a layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},

	{Name: "xdr.read_reply_ns", Unit: "ns", Better: "lower"},
	{Name: "xdr.write_call_ns", Unit: "ns", Better: "lower"},
	{Name: "xdr.allocs_per_frame", Unit: "count", Better: "lower"},

	{Name: "nfs.rung_us_per_op", Unit: "us", Better: "lower"},
	{Name: "nfs.self_us_per_op", Unit: "us", Better: "lower"},
	{Name: "nfs.self_allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "nfs.self_alloc_kb_per_op", Unit: "KB", Better: "lower"},
	{Name: "nfs.null_rtt_us", Unit: "us", Better: "lower"},

	{Name: "fsys.rung_us_per_op", Unit: "us", Better: "lower"},
	{Name: "fsys.self_us_per_op", Unit: "us", Better: "lower"},
	{Name: "fsys.allocs_per_op", Unit: "count", Better: "lower"},

	{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cache.evictions_per_op", Unit: "count", Better: "lower"},
	{Name: "cache.flushed_blocks_per_op", Unit: "count", Better: "lower"},
	{Name: "cache.flush_jobs_per_op", Unit: "count", Better: "lower"},
	{Name: "cache.pressure_waits_per_op", Unit: "count", Better: "lower"},
	{Name: "cache.readahead_fills_per_op", Unit: "count", Better: "higher"},
	{Name: "cache.getblock_hit_ns", Unit: "ns", Better: "lower"},

	{Name: "telemetry.stage_queue_us", Unit: "us", Better: "lower"},
	{Name: "telemetry.stage_cache_us", Unit: "us", Better: "lower"},
	{Name: "telemetry.stage_disk_us", Unit: "us", Better: "lower"},
	{Name: "telemetry.begin_finish_ns", Unit: "ns", Better: "lower"},

	{Name: "volume.rung_us_per_op", Unit: "us", Better: "lower"},
	{Name: "volume.self_us_per_op", Unit: "us", Better: "lower"},
	{Name: "volume.member_reqs_per_op", Unit: "count", Better: "lower"},
	{Name: "volume.blocks_written_per_user_block", Unit: "ratio", Better: "lower"},
	{Name: "volume.staged_copy_bytes_per_op", Unit: "B", Better: "lower"},

	{Name: "lfs.write_us_per_block", Unit: "us", Better: "lower"},
	{Name: "lfs.readrun_us_per_block", Unit: "us", Better: "lower"},
	{Name: "lfs.allocs_per_block", Unit: "count", Better: "lower"},
	{Name: "ffs.write_us_per_block", Unit: "us", Better: "lower"},
	{Name: "ffs.readrun_us_per_block", Unit: "us", Better: "lower"},

	{Name: "device.rung_us_per_req", Unit: "us", Better: "lower"},
	{Name: "device.read_reqs_per_op", Unit: "count", Better: "lower"},
	{Name: "device.write_reqs_per_op", Unit: "count", Better: "lower"},
	{Name: "device.blocks_per_req", Unit: "count", Better: "higher"},
	{Name: "device.vec_req_share", Unit: "ratio", Better: "higher"},
	{Name: "device.wait_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "device.service_ms_mean", Unit: "ms", Better: "lower"},

	{Name: "sched.vk_switch_ns", Unit: "ns", Better: "lower"},
	{Name: "sched.vk_timer_ns", Unit: "ns", Better: "lower"},

	{Name: "disk.model_ns_per_io", Unit: "ns", Better: "lower"},
	{Name: "patsy.naive_disk_ops_per_s", Unit: "1/s", Better: "higher"},

	{Name: "trace.generate_us_per_rec", Unit: "us", Better: "lower"},
	{Name: "trace.codec_us_per_rec", Unit: "us", Better: "lower"},

	// Simulated outcomes, on the virtual clock ("sim_us"): exact per
	// seed, so a change to host speed alone leaves them identical.
	{Name: "patsy.read_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "patsy.disk_reqs_per_rec", Unit: "count", Better: "lower"},
	{Name: "patsy.blocks_per_req", Unit: "count", Better: "higher"},
	{Name: "patsy.flushed_blocks", Unit: "count", Better: "lower"},
	{Name: "patsy.saved_writes", Unit: "count", Better: "higher"},
	{Name: "patsy.sim_mean_us", Unit: "sim_us", Better: "lower"},
	{Name: "patsy.sim_p50_us", Unit: "sim_us", Better: "lower"},
	{Name: "patsy.sim_p99_us", Unit: "sim_us", Better: "lower"},
}

// devCounters sums what a set of member drivers has done so far.
type devCounters struct {
	readReqs, writeReqs, blocksRead, blocksWritten, vecReqs int64
	waitN, serviceN                                         int64
	waitMS, serviceMS                                       float64
}

func driverCounters(drvs []device.Driver) devCounters {
	var c devCounters
	for _, d := range drvs {
		ds := d.DriverStats()
		c.readReqs += ds.Reads.Value()
		c.writeReqs += ds.Writes.Value()
		c.blocksRead += ds.BlocksRead.Value()
		c.blocksWritten += ds.BlocksWritten.Value()
		c.vecReqs += ds.VecReads.Value() + ds.VecWrites.Value()
		c.waitN += ds.WaitMS.N()
		c.waitMS += ds.WaitMS.Mean() * float64(ds.WaitMS.N())
		c.serviceN += ds.ServiceMS.N()
		c.serviceMS += ds.ServiceMS.Mean() * float64(ds.ServiceMS.N())
	}
	return c
}

func (c devCounters) sub(b devCounters) devCounters {
	return devCounters{
		c.readReqs - b.readReqs, c.writeReqs - b.writeReqs, c.blocksRead - b.blocksRead,
		c.blocksWritten - b.blocksWritten, c.vecReqs - b.vecReqs,
		c.waitN - b.waitN, c.serviceN - b.serviceN, c.waitMS - b.waitMS, c.serviceMS - b.serviceMS,
	}
}

func (c devCounters) reqs() int64 { return c.readReqs + c.writeReqs }

// srvCounters adds the server's own counters: cache, staging copies
// and the tracer's three stage histograms.
type srvCounters struct {
	dev                                                        devCounters
	lookups, hits, evictions, flushed, flushJobs, waits, fills int64
	staged                                                     int64
	stageN                                                     [3]int64
	stageSum                                                   [3]time.Duration
}

func serverCounters(srv *pfs.Server) srvCounters {
	cs := srv.Cache.CacheStats()
	c := srvCounters{
		dev:     driverCounters(srv.AllDrivers()),
		lookups: cs.Lookups.Value(), hits: cs.Hits.Value(), evictions: cs.Evictions.Value(),
		flushed: cs.FlushedBlocks.Value(), flushJobs: cs.FlushJobs.Value(),
		waits: cs.PressureWaits.Value(), fills: cs.ReadaheadFills.Value(),
		staged: srv.StagedCopyBytes(),
	}
	for i, s := range telemetry.Stages() {
		h := srv.Tracer.StageHist(s)
		c.stageN[i], c.stageSum[i] = h.Total(), h.Sum()
	}
	return c
}

func (c srvCounters) sub(b srvCounters) srvCounters {
	d := srvCounters{
		dev:     c.dev.sub(b.dev),
		lookups: c.lookups - b.lookups, hits: c.hits - b.hits, evictions: c.evictions - b.evictions,
		flushed: c.flushed - b.flushed, flushJobs: c.flushJobs - b.flushJobs,
		waits: c.waits - b.waits, fills: c.fills - b.fills, staged: c.staged - b.staged,
	}
	for i := range c.stageN {
		d.stageN[i], d.stageSum[i] = c.stageN[i]-b.stageN[i], c.stageSum[i]-b.stageSum[i]
	}
	return d
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// viaFsys enters an op below the protocol: a kernel task calls the
// file-system front-end the way the NFS executor does (open by id,
// one positional read or write, close).
func (r *rig) viaFsys(w int, o op, payload []byte) ([]byte, error) {
	v, id := r.srv.Vol, r.fhs[o.file].File
	off, n := o.blk*core.BlockSize, int64(r.wl.IOBlocks)*core.BlockSize
	var out []byte
	err := r.srv.Do(func(t sched.Task) error {
		h, err := v.OpenByID(t, id)
		if err != nil {
			return err
		}
		defer v.Close(t, h)
		if payload != nil {
			return v.WriteAt(t, h, off, payload, n)
		}
		buf := r.readBuf[w]
		got, err := v.ReadAt(t, h, off, buf, n)
		out = buf[:got]
		return err
	})
	return out, err
}

// nullRTT is the mean round trip of the protocol's empty call.
func (r *rig) nullRTT(n int) (float64, error) {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := r.cl.Null(); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0).Microseconds()) / float64(n), nil
}

// rungWindows runs the traced run's windows of one rung and returns
// them; rec is nil for the untraced comparison pass.
func rungWindows(l *load, windows, ops int, enter enterFunc, rec *spanLog, rung uint8) []sample {
	l.rewind()
	var out []sample
	for i := 0; i < windows; i++ {
		out = append(out, measure(nil, func() (int, []int64) { return l.window(ops, enter, rec, rung) }))
	}
	return out
}

func meanLat(ws []sample) float64 { return medianOf(ws, func(s sample) float64 { return s.MeanLatUs }) }
func allocsOf(ws []sample) float64 {
	return medianOf(ws, func(s sample) float64 { return s.Allocs })
}
func allocKBOf(ws []sample) float64 {
	return medianOf(ws, func(s sample) float64 { return s.AllocKB })
}

// tracePFS is the traced run of a real-kernel workload: the op stream
// is entered at four rungs (nfs, fsys on the served stack; volume,
// device on a second stack the harness builds), every call wrapped in
// a span, and the server's counters are read as deltas around the nfs
// rung. Layers with no place on the ladder get their micro-driver.
func tracePFS(wl pfsWorkload, o options) (*result, error) {
	const windows = 2
	ops := wl.WindowOps / 2
	res := newResult(wl.Name, o)
	res.Sizing = wl.sizing(o.workers, ops)
	res.Sizing["windows_per_rung"] = windows
	res.Rungs = map[string][]sample{}
	rec := newSpanLog(3*windows*ops + maxTape)
	vals := map[string]float64{}

	r, _, err := setUp(o.imageDir, wl, o.seed, o.workers)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer r.tearDown()
	if vals["nfs.null_rtt_us"], err = r.nullRTT(ops / 4); err != nil {
		return nil, err
	}

	// The nfs rung twice: spans off, then on. The difference is what
	// recording costs; the counters bracket the recorded pass.
	plain := rungWindows(r.load, windows, ops, r.viaNFS, nil, rungNFS)
	before := serverCounters(r.srv)
	nfsW := rungWindows(r.load, windows, ops, r.viaNFS, rec, rungNFS)
	srv := serverCounters(r.srv).sub(before)
	res.Rungs["nfs_untraced"], res.Rungs["nfs"] = plain, nfsW
	vals["trace.overhead_pct"] = 100 * (ratio(meanLat(nfsW), meanLat(plain)) - 1)

	devBefore := driverCounters(r.srv.AllDrivers())
	fsysW := rungWindows(r.load, windows, ops, r.viaFsys, rec, rungFsys)
	fsysDev := driverCounters(r.srv.AllDrivers()).sub(devBefore)
	res.Rungs["fsys"] = fsysW

	r.readBack()
	if err := r.remountCheck(o.remountSamples); err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = r.load.totals()
	r.tearDown()

	// The lower rungs, on the harness's own stack.
	st, err := buildStack(o.imageDir, wl, o.seed, o.workers, rec)
	if err != nil {
		return nil, err
	}
	defer st.close()
	var bare []device.Driver
	for _, d := range st.drvs {
		bare = append(bare, d.Driver)
	}
	devBefore = driverCounters(bare)
	st.record(true)
	volW := rungWindows(st.load, windows, ops, st.viaVolume, rec, rungVolume)
	st.record(false)
	volDev := driverCounters(bare).sub(devBefore)
	res.Rungs["volume"] = volW
	devLat, err := st.replayTape(rec)
	if err != nil {
		return nil, fmt.Errorf("device rung: %w", err)
	}
	a, f := st.load.totals()
	res.Attempted, res.Failed = res.Attempted+a, res.Failed+f

	n := float64(windows * ops)
	var devSum int64
	for _, d := range devLat {
		devSum += d
	}
	devPerReq := ratio(float64(devSum)/1e3, float64(len(devLat)))
	volReqsPerOp := ratio(float64(volDev.reqs()), n)
	volPerReq := ratio(meanLat(volW), volReqsPerOp)

	vals["nfs.rung_us_per_op"] = meanLat(nfsW)
	vals["fsys.rung_us_per_op"] = meanLat(fsysW)
	vals["volume.rung_us_per_op"] = meanLat(volW)
	vals["device.rung_us_per_req"] = devPerReq
	// A rung's self time is its time per op less what the rung below
	// it charges for the driver requests the op caused.
	vals["nfs.self_us_per_op"] = meanLat(nfsW) - meanLat(fsysW)
	vals["fsys.self_us_per_op"] = meanLat(fsysW) - ratio(float64(fsysDev.reqs()), n)*volPerReq
	vals["volume.self_us_per_op"] = meanLat(volW) - volReqsPerOp*devPerReq
	vals["nfs.self_allocs_per_op"] = allocsOf(nfsW) - allocsOf(fsysW)
	vals["nfs.self_alloc_kb_per_op"] = allocKBOf(nfsW) - allocKBOf(fsysW)
	vals["fsys.allocs_per_op"] = allocsOf(fsysW)
	vals["volume.member_reqs_per_op"] = volReqsPerOp

	vals["cache.hit_ratio"] = ratio(float64(srv.hits), float64(srv.lookups))
	vals["cache.evictions_per_op"] = float64(srv.evictions) / n
	vals["cache.flushed_blocks_per_op"] = float64(srv.flushed) / n
	vals["cache.flush_jobs_per_op"] = float64(srv.flushJobs) / n
	vals["cache.pressure_waits_per_op"] = float64(srv.waits) / n
	vals["cache.readahead_fills_per_op"] = float64(srv.fills) / n
	for i, name := range []string{"telemetry.stage_queue_us", "telemetry.stage_cache_us", "telemetry.stage_disk_us"} {
		vals[name] = ratio(float64(srv.stageSum[i].Nanoseconds())/1e3, float64(srv.stageN[i]))
	}
	if wl.Write {
		vals["volume.blocks_written_per_user_block"] = float64(srv.dev.blocksWritten) / (n * float64(wl.IOBlocks))
	}
	vals["volume.staged_copy_bytes_per_op"] = float64(srv.staged) / n
	vals["device.read_reqs_per_op"] = float64(srv.dev.readReqs) / n
	vals["device.write_reqs_per_op"] = float64(srv.dev.writeReqs) / n
	vals["device.blocks_per_req"] = ratio(float64(srv.dev.blocksRead+srv.dev.blocksWritten), float64(srv.dev.reqs()))
	vals["device.vec_req_share"] = ratio(float64(srv.dev.vecReqs), float64(srv.dev.reqs()))
	vals["device.wait_ms_mean"] = ratio(srv.dev.waitMS, float64(srv.dev.waitN))
	vals["device.service_ms_mean"] = ratio(srv.dev.serviceMS, float64(srv.dev.serviceN))

	if err := microDrivers(o, vals); err != nil {
		return nil, err
	}
	res.setMetrics(perLayer, vals)
	if err := rec.writeFile(filepath.Join(o.outDir, wl.Name+".spans.json"), wl.Name, res.Env); err != nil {
		return nil, err
	}
	return res, nil
}
