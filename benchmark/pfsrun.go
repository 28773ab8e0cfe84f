package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/nfs"
	"repro/internal/pfs"
	"repro/internal/sched"
)

// rig is one set-up PFS: an in-process server on a loopback port, one
// pipelined client connection, and the prefilled file set.
type rig struct {
	wl   pfsWorkload
	cfg  pfs.Config
	srv  *pfs.Server
	cl   *nfs.Client
	fhs  []nfs.FH
	load *load
	// readBuf is each worker's buffer for reads entered below the
	// protocol, where the caller supplies it.
	readBuf [][]byte
}

func fileName(i int) string { return fmt.Sprintf("f%03d", i) }

// removeImages deletes the image set a configuration backs onto.
func removeImages(cfg pfs.Config) {
	os.Remove(cfg.Path)
	for i := 0; i < cfg.Volumes; i++ {
		os.Remove(fmt.Sprintf("%s.v%d", cfg.Path, i))
	}
}

// setUp formats a fresh image set under dir, serves it, prefills the
// file set with the version-0 pattern, syncs, and runs one warm-up
// window. The returned duration is the workload's set-up time.
func setUp(dir string, wl pfsWorkload, seed int64, workers int) (*rig, time.Duration, error) {
	t0 := time.Now()
	r := &rig{wl: wl, load: newLoad(wl, seed, workers)}
	for w := 0; w < workers; w++ {
		r.readBuf = append(r.readBuf, make([]byte, wl.IOBlocks*core.BlockSize))
	}
	// Everything but the sizes is the server's default: LFS members,
	// the UPS write policy, 8 cache shards, readahead 8, cluster 16.
	r.cfg = pfs.Config{
		Path:        filepath.Join(dir, wl.Name+".img"),
		Blocks:      memberBlocks,
		CacheBlocks: wl.CacheBlocks,
		Volumes:     wl.Volumes,
		Placement:   wl.Placement,
		Seed:        seed,
	}
	if wl.Placement != "" {
		r.cfg.StripeBlocks = 8
	}
	removeImages(r.cfg)
	var err error
	if r.srv, err = pfs.Open(r.cfg); err != nil {
		return nil, 0, err
	}
	if err = r.connect(); err == nil {
		err = r.prefill()
	}
	if err == nil {
		err = r.srv.Sync()
	}
	if err != nil {
		r.tearDown()
		return nil, 0, err
	}
	r.load.window(wl.WindowOps, r.viaNFS, nil, 0)
	return r, time.Since(t0), nil
}

// connect serves the volume on a free loopback port and dials the one
// pipelined connection the workers share.
func (r *rig) connect() error {
	addr, err := r.srv.ServeNFS("127.0.0.1:0")
	if err != nil {
		return err
	}
	r.cl, err = nfs.DialPipeline(addr, r.load.workers)
	return err
}

func (r *rig) prefill() error {
	root, _, err := r.cl.Mount(1)
	if err != nil {
		return err
	}
	chunk := make([]byte, nfs.MaxIO)
	per := nfs.MaxIO / core.BlockSize
	for f := 0; f < r.wl.Files; f++ {
		fh, _, err := r.cl.Create(root, fileName(f))
		if err != nil {
			return fmt.Errorf("create %s: %w", fileName(f), err)
		}
		r.fhs = append(r.fhs, fh)
		for blk := 0; blk < r.wl.FileBlocks; blk += per {
			n := min(per, r.wl.FileBlocks-blk)
			for b := 0; b < n; b++ {
				fillPattern(chunk[b*core.BlockSize:(b+1)*core.BlockSize], f, int64(blk+b), 0)
			}
			if _, err := r.cl.Write(fh, int64(blk)*core.BlockSize, chunk[:n*core.BlockSize]); err != nil {
				return fmt.Errorf("prefill %s: %w", fileName(f), err)
			}
		}
	}
	return nil
}

// tearDown stops the server and deletes its images; calling it again
// is harmless.
func (r *rig) tearDown() {
	if r.cl != nil {
		r.cl.Close()
		r.cl = nil
	}
	if r.srv != nil {
		r.srv.Close()
		r.srv = nil
	}
	removeImages(r.cfg)
}

// viaNFS enters an op at the top of the stack: the TCP client.
func (r *rig) viaNFS(_ int, o op, payload []byte) ([]byte, error) {
	off := o.blk * core.BlockSize
	if payload != nil {
		_, err := r.cl.Write(r.fhs[o.file], off, payload)
		return nil, err
	}
	return r.cl.Read(r.fhs[o.file], off, r.wl.IOBlocks*core.BlockSize)
}

// readBack reads every block of every file through the client and
// checks it against the version the op stream left it at.
func (r *rig) readBack() {
	l := r.load
	per := nfs.MaxIO / core.BlockSize
	for f := 0; f < r.wl.Files; f++ {
		for blk := 0; blk < r.wl.FileBlocks; blk += per {
			n := min(per, r.wl.FileBlocks-blk)
			got, err := r.cl.Read(r.fhs[f], int64(blk)*core.BlockSize, n*core.BlockSize)
			l.attempted[0]++
			if err != nil || !l.matches(0, f, int64(blk), n, got) {
				l.failed[0]++
			}
		}
	}
}

// remountCheck closes the server (which syncs), reopens the same
// image set and re-verifies a seeded sample of blocks below the
// protocol, on the file-system front-end.
func (r *rig) remountCheck(samples int) error {
	r.cl.Close()
	r.cl = nil
	err := r.srv.Close()
	r.srv = nil
	if err != nil {
		return fmt.Errorf("close: %w", err)
	}
	if r.srv, err = pfs.Open(r.cfg); err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	l := r.load
	rng := rand.New(rand.NewSource(l.seed))
	buf := make([]byte, core.BlockSize)
	return r.srv.Do(func(t sched.Task) error {
		for i := 0; i < samples; i++ {
			f, blk := rng.Intn(r.wl.Files), int64(rng.Intn(r.wl.FileBlocks))
			h, err := r.srv.Vol.Open(t, fileName(f))
			if err != nil {
				return fmt.Errorf("open %s after remount: %w", fileName(f), err)
			}
			n, err := r.srv.Vol.ReadAt(t, h, blk*core.BlockSize, buf, core.BlockSize)
			r.srv.Vol.Close(t, h)
			l.attempted[0]++
			if err != nil || !l.matches(0, f, blk, 1, buf[:n]) {
				l.failed[0]++
			}
		}
		return nil
	})
}

// runPFS is one untraced run of a real-kernel workload: set up,
// measure a share of the windows, verify, tear down; three times over.
func runPFS(wl pfsWorkload, o options) (*result, error) {
	res := newResult(wl.Name, o)
	res.Sizing = wl.sizing(o.workers, wl.WindowOps)
	var live float64
	for i := 0; i < o.setups; i++ {
		last := i == o.setups-1
		r, d, err := setUp(o.imageDir, wl, o.seed, o.workers)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.SetupsS = append(res.SetupsS, d.Seconds())
		err = func() error {
			defer r.tearDown()
			stopProfile := func() {}
			if last { // the profiles cover the last set-up's windows
				if stopProfile, err = o.startCPUProfile(); err != nil {
					return err
				}
			}
			res.Windows = append(res.Windows, measurePhase(i, o.measureFor/time.Duration(o.setups), func() sample {
				return measure(&res.pool, func() (int, []int64) { return r.load.window(wl.WindowOps, r.viaNFS, nil, 0) })
			})...)
			stopProfile()
			if last {
				res.foldLatencies()
				live = liveHeapMB()
				if err := o.writeMemProfile(); err != nil {
					return err
				}
			}
			r.readBack()
			if last {
				if err := r.remountCheck(o.remountSamples); err != nil {
					return err
				}
			}
			a, f := r.load.totals()
			res.Attempted, res.Failed = res.Attempted+a, res.Failed+f
			return nil
		}()
		if err != nil {
			return nil, err
		}
	}
	res.setEndToEnd(median(res.SetupsS), live)
	return res, nil
}
