package pfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/fsys"
	"repro/internal/sched"
)

// TestWriteBurstDoesNotBurnSegments is the regression gate for the
// barrier-per-flush pathology: under UPS every evicted dirty block is
// its own flush job and every job ends in a write barrier. When the
// barrier closed the open segment, this load retired (and then
// cleaned) 1.4 partial segments and wrote 12.8 log blocks per flushed
// block; a barrier that commits in place retires a segment only when
// it is full. Random 8 KB overwrites of 8 MB behind a 1 MB cache.
func TestWriteBurstDoesNotBurnSegments(t *testing.T) {
	const (
		files      = 4
		fileBlocks = 512 // 4 × 2 MB
		ioBlocks   = 2
		ops        = 2000
	)
	srv, err := Open(Config{
		Path:        filepath.Join(t.TempDir(), "pfs.img"),
		Blocks:      16384, // 64 MB: 127 data segments for 8 MB of files
		CacheBlocks: 256,
		CacheShards: 1,
		Seed:        7,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	pattern := func(f int, blk int64, ver byte) []byte {
		return bytes.Repeat([]byte{byte(f)<<6 | byte(blk)&0x3F ^ ver}, core.BlockSize)
	}
	version := make(map[[2]int64]byte)
	handles := make([]*fsys.Handle, files)
	err = srv.Do(func(tk sched.Task) error {
		for f := range handles {
			h, err := srv.Vol.Create(tk, fmt.Sprintf("/f%d", f), core.TypeRegular)
			if err != nil {
				return err
			}
			handles[f] = h
			for blk := int64(0); blk < fileBlocks; blk++ {
				if err := srv.Vol.WriteAt(tk, h, blk*core.BlockSize, pattern(f, blk, 0), core.BlockSize); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("prefill: %v", err)
	}
	if err := srv.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}

	cs := srv.Cache.CacheStats()
	sum := func() (partial, cleaned, logBlocks int64) {
		for _, ls := range logStats(srv.Array) {
			partial += ls.PartialSegs.Value()
			cleaned += ls.SegsCleaned.Value()
			logBlocks += ls.LogBlocksWritten.Value()
		}
		return
	}
	partial0, cleaned0, blocks0 := sum()
	jobs0, flushed0 := cs.FlushJobs.Value(), cs.FlushedBlocks.Value()

	rng := rand.New(rand.NewSource(7))
	err = srv.Do(func(tk sched.Task) error {
		for i := 0; i < ops; i++ {
			f := rng.Intn(files)
			blk := int64(rng.Intn(fileBlocks/ioBlocks)) * ioBlocks
			for b := blk; b < blk+ioBlocks; b++ {
				key := [2]int64{int64(f), b}
				version[key]++
				if err := srv.Vol.WriteAt(tk, handles[f], b*core.BlockSize, pattern(f, b, version[key]), core.BlockSize); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("overwrites: %v", err)
	}

	partial, cleaned, logBlocks := sum()
	partial, cleaned, logBlocks = partial-partial0, cleaned-cleaned0, logBlocks-blocks0
	jobs, flushed := cs.FlushJobs.Value()-jobs0, cs.FlushedBlocks.Value()-flushed0
	t.Logf("flush jobs %d, flushed blocks %d: partial segments %d, cleaned %d, log blocks %d (%.2f per flushed block)",
		jobs, flushed, partial, cleaned, logBlocks, float64(logBlocks)/float64(flushed))
	if jobs < ops {
		t.Fatalf("only %d flush jobs for %d overwrites — the cache is not under pressure, the gate measures nothing", jobs, ops)
	}
	if r := float64(partial) / float64(jobs); r >= 0.1 {
		t.Errorf("partial segments per flush job = %.2f, want < 0.1", r)
	}
	if r := float64(logBlocks) / float64(flushed); r > 5 {
		t.Errorf("log blocks written per flushed block = %.2f, want <= 5", r)
	}

	// The overwrites must still read back, through the cache and the log.
	err = srv.Do(func(tk sched.Task) error {
		buf := make([]byte, core.BlockSize)
		for f, h := range handles {
			for blk := int64(0); blk < fileBlocks; blk++ {
				if _, err := srv.Vol.ReadAt(tk, h, blk*core.BlockSize, buf, core.BlockSize); err != nil {
					return err
				}
				if want := pattern(f, blk, version[[2]int64{int64(f), blk}]); !bytes.Equal(buf, want) {
					return fmt.Errorf("f%d block %d reads %#x, want %#x", f, blk, buf[0], want[0])
				}
			}
			if err := srv.Vol.Close(tk, h); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("read-back: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
