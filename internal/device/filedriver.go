package device

import (
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/sched"
)

// fileBackend is the real disk back-end: an ordinary Unix file (or
// raw device) addressed in file-system blocks, as PFS's only real
// driver uses. Latencies are whatever the host delivers.
type fileBackend struct {
	f      *os.File
	blocks int64
	vec    vecIO
}

func (b *fileBackend) capacityBlocks() int64 { return b.blocks }

// Close releases the image file (crash harnesses cycle many driver
// incarnations per process).
func (b *fileBackend) Close() error { return b.f.Close() }

func (b *fileBackend) perform(t sched.Task, r *Request) {
	want := r.Blocks * core.BlockSize
	off := r.Addr.LBA * core.BlockSize
	if r.Vec != nil {
		if got := VecLen(r.Vec); got != want {
			r.Err = fmt.Errorf("device: request %s %v has %d vector bytes, need %d",
				r.Op, r.Addr, got, want)
			return
		}
		r.Err = b.vec.transfer(r.Op, r.Vec, off)
		return
	}
	if len(r.Data) < want {
		r.Err = fmt.Errorf("device: request %s %v has %d data bytes, need %d",
			r.Op, r.Addr, len(r.Data), want)
		return
	}
	var err error
	if r.Op == OpRead {
		_, err = b.f.ReadAt(r.Data[:want], off)
	} else {
		_, err = b.f.WriteAt(r.Data[:want], off)
	}
	r.Err = err
}

// NewFileDriver opens (creating if needed) a file-backed driver of
// the given capacity in blocks. The file is sized up front so block
// addresses are always readable.
func NewFileDriver(k sched.Kernel, name, path string, blocks int64, q Scheduler) (Driver, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(blocks * core.BlockSize); err != nil {
		f.Close()
		return nil, err
	}
	be := &fileBackend{f: f, blocks: blocks}
	if err := be.vec.init(f); err != nil {
		f.Close()
		return nil, err
	}
	if q == nil {
		q = &CLOOK{}
	}
	return newDriver(k, name, q, be), nil
}

// memBackend is an in-memory disk for tests and the quickstart
// example: real data movement without touching the host file system.
type memBackend struct {
	data   []byte
	blocks int64
}

func (b *memBackend) capacityBlocks() int64 { return b.blocks }

func (b *memBackend) perform(t sched.Task, r *Request) {
	want := r.Blocks * core.BlockSize
	off := r.Addr.LBA * core.BlockSize
	if off < 0 || off+int64(want) > int64(len(b.data)) {
		r.Err = fmt.Errorf("device: %s %v beyond capacity", r.Op, r.Addr)
		return
	}
	if r.Vec != nil {
		if got := VecLen(r.Vec); got != want {
			r.Err = fmt.Errorf("device: request %s %v has %d vector bytes, need %d",
				r.Op, r.Addr, got, want)
			return
		}
		pos := off
		for _, s := range r.Vec {
			if r.Op == OpRead {
				copy(s, b.data[pos:])
			} else {
				copy(b.data[pos:], s)
			}
			pos += int64(len(s))
		}
		return
	}
	if len(r.Data) < want {
		r.Err = fmt.Errorf("device: request %s %v has %d data bytes, need %d",
			r.Op, r.Addr, len(r.Data), want)
		return
	}
	if r.Op == OpRead {
		copy(r.Data[:want], b.data[off:])
	} else {
		copy(b.data[off:], r.Data[:want])
	}
}

// NewMemDriver creates a RAM-backed driver of the given capacity.
func NewMemDriver(k sched.Kernel, name string, blocks int64, q Scheduler) Driver {
	if q == nil {
		q = &CLOOK{}
	}
	return newDriver(k, name, q, &memBackend{
		data:   make([]byte, blocks*core.BlockSize),
		blocks: blocks,
	})
}
