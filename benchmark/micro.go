package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/disk"
	"repro/internal/ffs"
	"repro/internal/fsys"
	"repro/internal/layout"
	"repro/internal/lfs"
	"repro/internal/nfs"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/xdr"
)

// The micro-drivers time the layers that have no place on the ladder,
// each over its public API alone. They are the same for every
// workload; a traced run reports them so that a move of an end-to-end
// metric can be laid at a layer's door.

// microIters scales every micro-driver's loop count.
func microIters(o options, n int) int {
	if o.smoke {
		return max(n/100, 16)
	}
	return n
}

// timeLoop runs fn n times and returns the wall nanoseconds and heap
// allocations of one call.
func timeLoop(n int, fn func()) (nsPer, allocsPer float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(d.Nanoseconds()) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// onTask runs fn on a task of a fresh real kernel and stops the kernel.
func onTask(fn func(k *sched.RKernel, t sched.Task) error) error {
	k := sched.NewReal(1)
	defer k.Stop()
	errc := make(chan error, 1)
	k.Go("bench.micro", func(t sched.Task) { errc <- fn(k, t) })
	return <-errc
}

// sink keeps the compiler from discarding a micro-driver's result.
var sink []byte

// microXDR encodes and decodes the two frames that carry payload: a
// read reply and a write call, 8 KB each.
func microXDR(o options, vals map[string]float64) {
	payload := make([]byte, 2*core.BlockSize)
	readReply := func() {
		e := xdr.NewEncoder()
		e.Uint32(7)
		e.Uint32(nfs.MsgReply)
		e.Uint32(nfs.OK)
		e.Opaque(payload)
		d := xdr.NewDecoder(e.Bytes())
		d.Uint32()
		d.Uint32()
		d.Uint32()
		sink, _ = d.Opaque()
	}
	writeCall := func() {
		e := xdr.NewEncoder()
		e.Uint32(7)
		e.Uint32(nfs.MsgCall)
		e.Uint32(nfs.ProcWrite)
		e.Uint32(1) // the file handle: volume, file, generation
		e.Uint64(9)
		e.Uint64(1)
		e.Int64(8192)
		e.Opaque(payload)
		d := xdr.NewDecoder(e.Bytes())
		d.Uint32()
		d.Uint32()
		d.Uint32()
		d.Uint32()
		d.Uint64()
		d.Uint64()
		d.Int64()
		sink, _ = d.OpaqueBorrow()
	}
	n := microIters(o, 100000)
	vals["xdr.read_reply_ns"], vals["xdr.allocs_per_frame"] = timeLoop(n, readReply)
	vals["xdr.write_call_ns"], _ = timeLoop(n, writeCall)
}

// microCache times the cache's hit path: GetBlock and Release of a
// resident block.
func microCache(o options, vals map[string]float64) error {
	return onTask(func(k *sched.RKernel, t sched.Task) error {
		c := cache.New(k, cache.Config{Blocks: 256, Flush: cache.UPS(), Shards: 8, ShardChunk: layout.DefaultClusterRun}, fsys.NewStore())
		key := core.BlockKey{Vol: 1, File: 10, Blk: 0}
		b, hit := c.GetBlock(t, key)
		if !hit {
			c.Filled(t, b, core.BlockSize)
		}
		c.Release(t, b)
		vals["cache.getblock_hit_ns"], _ = timeLoop(microIters(o, 200000), func() {
			b, _ := c.GetBlock(t, key)
			c.Release(t, b)
		})
		return nil
	})
}

// microTelemetry times what the tracer adds to every NFS call.
func microTelemetry(o options, vals map[string]float64) error {
	return onTask(func(k *sched.RKernel, t sched.Task) error {
		tr := telemetry.NewTracer(k, 0)
		vals["telemetry.begin_finish_ns"], _ = timeLoop(microIters(o, 200000), func() {
			op := tr.Begin("read", tr.Now())
			tr.Bind(t, op)
			op.Add(telemetry.StageCache, time.Microsecond)
			tr.Unbind(t)
			tr.Finish(op, tr.Now())
		})
		return nil
	})
}

// microLayout writes and reads back cluster-sized runs through one
// layout over a RAM disk: the layout's own cost per block, with no
// cache above it and no file I/O below.
func microLayout(o options, kind string, vals map[string]float64) error {
	const blocks = 16384
	runs := microIters(o, 512)
	return onTask(func(k *sched.RKernel, t sched.Task) error {
		part := layout.NewPartition(device.NewMemDriver(k, "mem", blocks, nil), 0, 0, blocks, false)
		var lay layout.Layout
		if kind == "lfs" {
			lay = lfs.New(k, "micro", part, lfs.DefaultConfig())
		} else {
			lay = ffs.New(k, "micro", part, ffs.DefaultConfig())
		}
		layout.SetClusterRun(lay, layout.DefaultClusterRun)
		layout.SetVectored(lay, true)
		if err := lay.Format(t); err != nil {
			return err
		}
		if err := lay.Mount(t); err != nil {
			return err
		}
		if _, err := lay.AllocInode(t, core.TypeDirectory); err != nil {
			return err
		}
		ino, err := lay.AllocInode(t, core.TypeRegular)
		if err != nil {
			return err
		}
		const run = layout.DefaultClusterRun
		ino.Size = int64(runs) * run * core.BlockSize
		bufs := make([][]byte, run)
		writes := make([]layout.BlockWrite, run)
		for b := range bufs {
			bufs[b] = make([]byte, core.BlockSize)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		var wrote time.Duration
		for r := 0; r < runs; r++ {
			for b := range writes {
				blk := int64(r*run + b)
				fillPattern(bufs[b], 0, blk, 0)
				writes[b] = layout.BlockWrite{Blk: core.BlockNo(blk), Data: bufs[b], Size: core.BlockSize}
			}
			t0 := time.Now()
			if err := lay.WriteBlocks(t, ino, writes); err != nil {
				return err
			}
			if bar, ok := lay.(layout.Barrier); ok {
				if err := bar.WriteBarrier(t); err != nil {
					return err
				}
			}
			wrote += time.Since(t0)
		}
		runtime.ReadMemStats(&m1)
		if err := lay.UpdateInode(t, ino); err != nil {
			return err
		}
		if err := lay.Sync(t); err != nil {
			return err
		}
		var read time.Duration
		exp := make([]byte, core.BlockSize)
		for r := 0; r < runs; r++ {
			for done := 0; done < run; {
				t0 := time.Now()
				got, ok, err := layout.ReadRunVec(t, lay, ino, core.BlockNo(r*run+done), run-done, bufs[done:])
				read += time.Since(t0)
				if err != nil {
					return err
				}
				if !ok {
					return fmt.Errorf("%s has no vectored run read", kind)
				}
				done += got
			}
			for b := range bufs {
				fillPattern(exp, 0, int64(r*run+b), 0)
				if !bytes.Equal(bufs[b], exp) {
					return fmt.Errorf("%s micro-driver: block %d read back wrong", kind, r*run+b)
				}
			}
		}
		n := float64(runs * run)
		vals[kind+".write_us_per_block"] = float64(wrote.Nanoseconds()) / 1e3 / n
		vals[kind+".readrun_us_per_block"] = float64(read.Nanoseconds()) / 1e3 / n
		if kind == "lfs" {
			vals["lfs.allocs_per_block"] = float64(m1.Mallocs-m0.Mallocs) / n
		}
		return nil
	})
}

// microSched times the virtual kernel's two primitives the simulator
// lives on: a task switch (two tasks handing an event back and forth)
// and a timer (one task sleeping a microsecond at a time).
func microSched(o options, vals map[string]float64) error {
	n := microIters(o, 100000)
	k := sched.NewVirtual(1)
	ping, pong := k.NewEvent("ping"), k.NewEvent("pong")
	k.Go("ping", func(t sched.Task) {
		for i := 0; i < n; i++ {
			ping.Signal()
			pong.Wait(t)
		}
	})
	k.Go("pong", func(t sched.Task) {
		for i := 0; i < n; i++ {
			ping.Wait(t)
			pong.Signal()
		}
	})
	t0 := time.Now()
	if err := k.Run(); err != nil {
		return err
	}
	vals["sched.vk_switch_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(2*n)

	k = sched.NewVirtual(1)
	k.Go("sleeper", func(t sched.Task) {
		for i := 0; i < n; i++ {
			t.Sleep(time.Microsecond)
		}
	})
	t0 = time.Now()
	if err := k.Run(); err != nil {
		return err
	}
	vals["sched.vk_timer_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	return nil
}

// microDisk times the HP 97560 model: host nanoseconds to compute and
// play one simulated 4 KB read at a random address, bus included.
func microDisk(o options, vals map[string]float64) error {
	n := microIters(o, 50000)
	k := sched.NewVirtual(1)
	b := bus.New(k, bus.SCSI2("scsi"))
	d := disk.New(k, disk.HP97560("disk"), b)
	d.Start()
	rng := rand.New(rand.NewSource(1))
	sectors := d.CapacitySectors() - core.SectorsPerBlock
	k.Go("io", func(t sched.Task) {
		for i := 0; i < n; i++ {
			r := &disk.IOReq{Op: disk.Read, LBA: rng.Int63n(sectors), Sectors: core.SectorsPerBlock, Done: k.NewEvent("done")}
			d.Submit(t, r)
			r.Done.Wait(t)
		}
		k.Stop()
	})
	t0 := time.Now()
	if err := k.Run(); err != nil {
		return err
	}
	vals["disk.model_ns_per_io"] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	return nil
}

// microTrace times the trace generator and the Sprite codec per
// record.
func microTrace(o options, vals map[string]float64) error {
	sc := simScale(o.smoke)
	t0 := time.Now()
	recs := sc.Trace(simProfile, simTraceSeed)
	vals["trace.generate_us_per_rec"] = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(len(recs))
	t0 = time.Now()
	var buf bytes.Buffer
	if err := (trace.SpriteFormat{}).Write(&buf, recs); err != nil {
		return err
	}
	back, err := (trace.SpriteFormat{}).Read(&buf)
	if err != nil {
		return err
	}
	if len(back) != len(recs) {
		return fmt.Errorf("trace codec lost records: %d of %d", len(back), len(recs))
	}
	vals["trace.codec_us_per_rec"] = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(len(recs))
	return nil
}

// microDrivers runs them all into vals.
func microDrivers(o options, vals map[string]float64) error {
	microXDR(o, vals)
	for _, step := range []func() error{
		func() error { return microCache(o, vals) },
		func() error { return microTelemetry(o, vals) },
		func() error { return microLayout(o, "lfs", vals) },
		func() error { return microLayout(o, "ffs", vals) },
		func() error { return microSched(o, vals) },
		func() error { return microDisk(o, vals) },
		func() error { return microTrace(o, vals) },
	} {
		if err := step(); err != nil {
			return fmt.Errorf("micro-driver: %w", err)
		}
	}
	return nil
}

// traceSim is the traced run of sim_trace. The simulator has no rungs
// to enter from outside, so its per-layer view is the simulated
// outcome of one window, the same replay over the naive disk model
// (what the HP 97560 and bus models cost the host), and the
// micro-drivers.
func traceSim(o options) (*result, error) {
	sc := simScale(o.smoke)
	recs, want, _, err := simSetUp(sc, o.seed)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	res := newResult(simTraceName, o)
	res.Sizing = map[string]int{"window_ops": want.Records, "trace_records": len(recs), "replays_per_window": len(simPolicies(sc))}
	got, _, err := replayWindow(sc, "", o.seed, recs)
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = got.Records, got.Errors
	if got != want {
		res.Failed++
		res.Notes = append(res.Notes, fmt.Sprintf("simulated outcome %+v differs from the warm-up's %+v", got, want))
	}
	t0 := time.Now()
	naive, _, err := replayWindow(sc, "naive", o.seed, recs)
	if err != nil {
		return nil, err
	}
	vals := map[string]float64{
		"patsy.naive_disk_ops_per_s": float64(naive.Records) / time.Since(t0).Seconds(),
		"patsy.read_hit_ratio":       got.ReadHitRatio,
		"patsy.disk_reqs_per_rec":    ratio(float64(got.DiskReqs), float64(got.Records)),
		"patsy.blocks_per_req":       ratio(float64(got.DiskBlocks), float64(got.DiskReqs)),
		"patsy.flushed_blocks":       float64(got.FlushedBlocks),
		"patsy.saved_writes":         float64(got.SavedWrites),
		"patsy.sim_mean_us":          float64(got.SimMeanNS) / 1e3,
		"patsy.sim_p50_us":           float64(got.SimP50NS) / 1e3,
		"patsy.sim_p99_us":           float64(got.SimP99NS) / 1e3,
	}
	if err := microDrivers(o, vals); err != nil {
		return nil, err
	}
	res.setMetrics(perLayer, vals)
	// No span is recorded for the simulator; the file says so rather
	// than being absent.
	rec := newSpanLog(0)
	if err := rec.writeFile(filepath.Join(o.outDir, simTraceName+".spans.json"), simTraceName, res.Env); err != nil {
		return nil, err
	}
	return res, nil
}
