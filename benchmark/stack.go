package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/layout"
	"repro/internal/lfs"
	"repro/internal/sched"
	"repro/internal/volume"
)

// devReq is one request a member driver was handed during the volume
// rung; the device rung replays them against the bare drivers.
type devReq struct {
	member int
	op     device.Op
	lba    int64
	blocks int
	parent int32
}

// recDriver passes every request through to the driver it wraps and,
// while recording, notes its shape.
type recDriver struct {
	device.Driver
	member int
	tape   *reqTape
}

// reqTape is the bounded list of recorded requests.
type reqTape struct {
	mu   sync.Mutex
	on   bool
	reqs []devReq
	rec  *spanLog
}

// maxTape bounds the device rung's work, not its fidelity: the volume
// rung's requests repeat a few shapes.
const maxTape = 4096

func (d *recDriver) note(r *device.Request) {
	tp := d.tape
	tp.mu.Lock()
	if tp.on && len(tp.reqs) < maxTape {
		tp.reqs = append(tp.reqs, devReq{d.member, r.Op, r.Addr.LBA, r.Blocks, tp.rec.last.Load()})
	}
	tp.mu.Unlock()
}

func (d *recDriver) Submit(t sched.Task, r *device.Request) {
	d.note(r)
	d.Driver.Submit(t, r)
}

func (d *recDriver) Do(t sched.Task, r *device.Request) error {
	d.note(r)
	return d.Driver.Do(t, r)
}

// stack is the lower half of a PFS the harness assembles itself, with
// the workload's geometry but no cache and no front-end: file driver,
// partition, LFS and volume array. The volume and device rungs run
// here, so their cache-bypassing writes never touch an image a cache
// believes it owns.
type stack struct {
	wl    pfsWorkload
	k     *sched.RKernel
	drvs  []*recDriver
	paths []string
	arr   *volume.Array
	inos  []*layout.Inode
	tape  *reqTape
	load  *load
	// frames are each worker's block buffers for vectored reads.
	frames [][][]byte
	flat   [][]byte
}

// do runs fn on a kernel task and waits for it.
func (s *stack) do(fn func(t sched.Task) error) error {
	errc := make(chan error, 1)
	s.k.Go("bench.stack", func(t sched.Task) { errc <- fn(t) })
	return <-errc
}

func buildStack(dir string, wl pfsWorkload, seed int64, workers int, rec *spanLog) (*stack, error) {
	s := &stack{wl: wl, k: sched.NewReal(seed), tape: &reqTape{rec: rec}, load: newLoad(wl, seed, workers)}
	width := max(1, wl.Volumes)
	subs := make([]layout.Layout, width)
	for i := 0; i < width; i++ {
		path := filepath.Join(dir, fmt.Sprintf("%s.rung.v%d", wl.Name, i))
		os.Remove(path)
		s.paths = append(s.paths, path)
		drv, err := device.NewFileDriver(s.k, fmt.Sprintf("rung.d%d", i), path, memberBlocks, nil)
		if err != nil {
			s.close()
			return nil, err
		}
		rd := &recDriver{Driver: drv, member: i, tape: s.tape}
		s.drvs = append(s.drvs, rd)
		part := layout.NewPartition(rd, i, 0, memberBlocks, false)
		subs[i] = lfs.New(s.k, fmt.Sprintf("rung.d%d", i), part, lfs.DefaultConfig())
	}
	arr, err := volume.New(s.k, "rung", subs, volume.Config{Placement: wl.Placement, StripeBlocks: 8})
	if err != nil {
		s.close()
		return nil, err
	}
	s.arr = arr
	// The same switches pfs.Open throws on its array.
	layout.SetClusterRun(arr, layout.DefaultClusterRun)
	layout.SetVectored(arr, true)
	for w := 0; w < workers; w++ {
		flat := make([]byte, wl.IOBlocks*core.BlockSize)
		var frames [][]byte
		for b := 0; b < wl.IOBlocks; b++ {
			frames = append(frames, flat[b*core.BlockSize:(b+1)*core.BlockSize])
		}
		s.flat, s.frames = append(s.flat, flat), append(s.frames, frames)
	}
	if err := s.do(s.prefill); err != nil {
		s.close()
		return nil, fmt.Errorf("prefill rung stack: %w", err)
	}
	return s, nil
}

// prefill formats the array and writes every file's version-0 pattern
// in cluster-sized batches, the way the cache's flusher would.
func (s *stack) prefill(t sched.Task) error {
	if err := s.arr.Format(t); err != nil {
		return err
	}
	if err := s.arr.Mount(t); err != nil {
		return err
	}
	// The front-end allocates the root directory first; keep the
	// inode numbering it would produce.
	if _, err := s.arr.AllocInode(t, core.TypeDirectory); err != nil {
		return err
	}
	batch := make([]byte, layout.DefaultClusterRun*core.BlockSize)
	for f := 0; f < s.wl.Files; f++ {
		ino, err := s.arr.AllocInode(t, core.TypeRegular)
		if err != nil {
			return err
		}
		s.inos = append(s.inos, ino)
		s.arr.GrowSize(t, ino, int64(s.wl.FileBlocks)*core.BlockSize)
		for blk := 0; blk < s.wl.FileBlocks; blk += layout.DefaultClusterRun {
			n := min(layout.DefaultClusterRun, s.wl.FileBlocks-blk)
			writes := make([]layout.BlockWrite, n)
			for b := 0; b < n; b++ {
				data := batch[b*core.BlockSize : (b+1)*core.BlockSize]
				fillPattern(data, f, int64(blk+b), 0)
				writes[b] = layout.BlockWrite{Blk: core.BlockNo(blk + b), Data: data, Size: core.BlockSize}
			}
			if err := s.arr.WriteBlocks(t, ino, writes); err != nil {
				return err
			}
		}
		if err := s.arr.UpdateInode(t, ino); err != nil {
			return err
		}
	}
	return s.arr.Sync(t)
}

// viaVolume enters an op at the volume array, below the cache: a read
// is one vectored run read per contiguous run, a write is one
// WriteBlocks followed by the barrier that makes a flush job durable.
func (s *stack) viaVolume(w int, o op, payload []byte) ([]byte, error) {
	ino := s.inos[o.file]
	var out []byte
	err := s.do(func(t sched.Task) error {
		if payload == nil {
			for done := 0; done < s.wl.IOBlocks; {
				got, err := s.arr.ReadRunVec(t, ino, core.BlockNo(o.blk+int64(done)), s.wl.IOBlocks-done, s.frames[w][done:])
				if err != nil {
					return err
				}
				done += got
			}
			out = s.flat[w]
			return nil
		}
		writes := make([]layout.BlockWrite, s.wl.IOBlocks)
		for b := range writes {
			writes[b] = layout.BlockWrite{Blk: core.BlockNo(o.blk + int64(b)), Data: payload[b*core.BlockSize : (b+1)*core.BlockSize], Size: core.BlockSize}
		}
		if err := s.arr.WriteBlocks(t, ino, writes); err != nil {
			return err
		}
		return s.arr.WriteBarrier(t)
	})
	return out, err
}

// record switches the request tape on or off.
func (s *stack) record(on bool) {
	s.tape.mu.Lock()
	s.tape.on = on
	s.tape.mu.Unlock()
}

// replayTape is the device rung: every recorded request goes to the
// bare driver again, one at a time. A write puts back the bytes it
// first reads from the same place (untimed), so the image stays
// valid. It returns the timed requests' durations.
func (s *stack) replayTape(rec *spanLog) ([]int64, error) {
	var lat []int64
	err := s.do(func(t sched.Task) error {
		for _, q := range s.tape.reqs {
			drv := s.drvs[q.member].Driver
			buf := make([]byte, q.blocks*core.BlockSize)
			r := &device.Request{Op: device.OpRead, Addr: core.DiskAddr{Disk: q.member, LBA: q.lba}, Blocks: q.blocks, Data: buf}
			if q.op == device.OpWrite {
				if err := drv.Do(t, r); err != nil {
					return err
				}
				r = &device.Request{Op: device.OpWrite, Addr: r.Addr, Blocks: q.blocks, Data: buf}
			}
			id := rec.begin(q.parent)
			t0 := time.Now()
			err := drv.Do(t, r)
			d := time.Since(t0)
			rec.end(id, rungDevice, 0, t0, d)
			if err != nil {
				return err
			}
			lat = append(lat, int64(d))
		}
		return nil
	})
	return lat, err
}

// close stops the kernel and deletes the images.
func (s *stack) close() {
	s.k.Stop()
	for _, d := range s.drvs {
		d.Close()
	}
	for _, p := range s.paths {
		os.Remove(p)
	}
}
