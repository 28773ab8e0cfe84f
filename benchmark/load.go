package main

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
)

// pfsWorkload describes one real-kernel workload: the geometry of the
// file set and server, and the closed-loop op stream run against it.
// Sizes are in 4 KB blocks.
type pfsWorkload struct {
	Name        string
	Files       int
	FileBlocks  int
	CacheBlocks int
	Volumes     int
	Placement   string
	// IOBlocks is the transfer size of every op.
	IOBlocks int
	// Stream makes each worker read sequentially through its own
	// files; otherwise offsets are uniform random, IO-size aligned.
	Stream bool
	Write  bool
	// WindowOps is the fixed amount of work in one measured window.
	WindowOps int
}

// memberBlocks is every array member's image size (256 MB).
const memberBlocks = 65536

// pfsWorkloads are the four real-kernel workloads; see README.md for
// why each exists. One connection, two closed-loop workers.
var pfsWorkloads = []pfsWorkload{
	{Name: "hot_read", Files: 8, FileBlocks: 256, CacheBlocks: 4096, IOBlocks: 2, WindowOps: 60000},
	{Name: "cold_stream", Files: 16, FileBlocks: 512, CacheBlocks: 1024, IOBlocks: 4, Stream: true, WindowOps: 30000},
	{Name: "write_burst", Files: 16, FileBlocks: 512, CacheBlocks: 1024, IOBlocks: 2, Write: true, WindowOps: 2000},
	{Name: "parity_write", Files: 16, FileBlocks: 512, CacheBlocks: 1024, Volumes: 4, Placement: "parity", IOBlocks: 2, Write: true, WindowOps: 1500},
}

// smoke shrinks a workload to a sizing that only proves the harness
// works: no number it yields means anything.
func (wl pfsWorkload) smoke() pfsWorkload {
	wl.Files, wl.FileBlocks = 4, 128
	wl.CacheBlocks /= 4 // a shard must still hold a whole 64 KB read
	wl.WindowOps = 200
	return wl
}

// sizing is the record of a run's geometry for its output file.
func (wl pfsWorkload) sizing(workers, windowOps int) map[string]int {
	return map[string]int{"window_ops": windowOps, "workers": workers, "files": wl.Files,
		"file_blocks": wl.FileBlocks, "cache_blocks": wl.CacheBlocks, "io_blocks": wl.IOBlocks}
}

// fillPattern writes the bytes block blk of file holds at version ver.
func fillPattern(dst []byte, file int, blk int64, ver uint32) {
	x := (uint64(file+1)<<52 ^ uint64(blk)<<24 ^ uint64(ver)) * 0x9E3779B97F4A7C15
	for i := 0; i+8 <= len(dst); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], x)
		x += 0x9E3779B97F4A7C15
	}
}

// op is one generated operation: IOBlocks blocks of file at blk.
type op struct {
	file int
	blk  int64
}

// opGen is one worker's deterministic op stream. A worker only ever
// touches its own files, so block versions need no locking and the
// content of every block is known at every moment.
type opGen struct {
	rng    *rand.Rand
	own    []int
	slots  int64
	io     int64
	stream bool
	cur    int
	pos    int64
}

func newOpGen(wl pfsWorkload, seed int64, w, workers int) *opGen {
	g := &opGen{
		rng:    rand.New(rand.NewSource(seed*1_000_003 + int64(w))),
		slots:  int64(wl.FileBlocks / wl.IOBlocks),
		io:     int64(wl.IOBlocks),
		stream: wl.Stream,
	}
	for f := w; f < wl.Files; f += workers {
		g.own = append(g.own, f)
	}
	if g.stream {
		g.cur = g.rng.Intn(len(g.own))
		g.pos = g.rng.Int63n(g.slots)
	}
	return g
}

func (g *opGen) next() op {
	if !g.stream {
		return op{file: g.own[g.rng.Intn(len(g.own))], blk: g.rng.Int63n(g.slots) * g.io}
	}
	if g.pos == g.slots {
		g.pos = 0
		g.cur = (g.cur + 1) % len(g.own)
	}
	o := op{file: g.own[g.cur], blk: g.pos * g.io}
	g.pos++
	return o
}

// enterFunc performs one op at some rung of the stack. A write passes
// its payload; a read passes nil and gets the bytes read back.
type enterFunc func(w int, o op, payload []byte) ([]byte, error)

// load is the client side of a PFS workload: the op generators, the
// expected content of every block, and the per-worker buffers, all
// allocated before the first window so the windows measure the
// system and not the harness.
type load struct {
	wl      pfsWorkload
	seed    int64
	workers int
	ver     [][]uint32
	gens    []*opGen
	payload [][]byte
	scratch [][]byte
	lat     [][]int64
	merged  []int64
	// attempted and failed count ops per worker, verification reads
	// included.
	attempted []int
	failed    []int
}

func newLoad(wl pfsWorkload, seed int64, workers int) *load {
	l := &load{wl: wl, seed: seed, workers: workers}
	l.ver = make([][]uint32, wl.Files)
	for f := range l.ver {
		l.ver[f] = make([]uint32, wl.FileBlocks)
	}
	per := wl.WindowOps / workers
	for w := 0; w < workers; w++ {
		l.payload = append(l.payload, make([]byte, wl.IOBlocks*core.BlockSize))
		l.scratch = append(l.scratch, make([]byte, core.BlockSize))
		l.lat = append(l.lat, make([]int64, 0, per))
	}
	l.merged = make([]int64, 0, per*workers)
	l.attempted = make([]int, workers)
	l.failed = make([]int, workers)
	l.rewind()
	return l
}

// rewind restarts every worker's op stream from the seed, so each
// rung of a traced run sees the same ops.
func (l *load) rewind() {
	l.gens = l.gens[:0]
	for w := 0; w < l.workers; w++ {
		l.gens = append(l.gens, newOpGen(l.wl, l.seed, w, l.workers))
	}
}

// matches reports whether got holds blocks [blk, blk+n) of file at
// their current versions.
func (l *load) matches(w int, file int, blk int64, n int, got []byte) bool {
	if len(got) != n*core.BlockSize {
		return false
	}
	exp := l.scratch[w]
	for b := 0; b < n; b++ {
		fillPattern(exp, file, blk+int64(b), l.ver[file][blk+int64(b)])
		if !bytes.Equal(got[b*core.BlockSize:(b+1)*core.BlockSize], exp) {
			return false
		}
	}
	return true
}

// work runs n ops of worker w's stream through enter. Only the call
// itself is timed; building a write's payload and checking a read's
// bytes happen around it. A non-nil rec gets one span per op.
func (l *load) work(w, n int, enter enterFunc, rec *spanLog, rung uint8) {
	g := l.gens[w]
	lat := l.lat[w][:0]
	for i := 0; i < n; i++ {
		o := g.next()
		var payload []byte
		if l.wl.Write {
			payload = l.payload[w]
			for b := 0; b < l.wl.IOBlocks; b++ {
				blk := o.blk + int64(b)
				l.ver[o.file][blk]++
				fillPattern(payload[b*core.BlockSize:(b+1)*core.BlockSize], o.file, blk, l.ver[o.file][blk])
			}
		}
		var id int32
		if rec != nil {
			id = rec.begin(-1)
		}
		t0 := time.Now()
		got, err := enter(w, o, payload)
		d := time.Since(t0)
		lat = append(lat, int64(d))
		if rec != nil {
			rec.end(id, rung, w, t0, d)
		}
		l.attempted[w]++
		if err != nil || (!l.wl.Write && !l.matches(w, o.file, o.blk, l.wl.IOBlocks, got)) {
			l.failed[w]++
		}
	}
	l.lat[w] = lat
}

// window runs one fixed-work window: every worker does its share of
// ops concurrently. It returns the op count and the latencies of all
// workers.
func (l *load) window(ops int, enter enterFunc, rec *spanLog, rung uint8) (int, []int64) {
	per := ops / l.workers
	var wg sync.WaitGroup
	for w := 0; w < l.workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.work(w, per, enter, rec, rung)
		}()
	}
	wg.Wait()
	l.merged = l.merged[:0]
	for w := 0; w < l.workers; w++ {
		l.merged = append(l.merged, l.lat[w]...)
	}
	return per * l.workers, l.merged
}

// totals sums the per-worker counts.
func (l *load) totals() (attempted, failed int) {
	for w := 0; w < l.workers; w++ {
		attempted += l.attempted[w]
		failed += l.failed[w]
	}
	return attempted, failed
}
