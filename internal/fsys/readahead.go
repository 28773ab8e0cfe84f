package fsys

import (
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/sched"
)

// Sequential-read readahead: when a file is being read front to
// back, a background task pulls the next window of blocks through
// the cache so the stream's demand reads become hits and the disk
// works ahead of the client. The fills are best-effort
// (cache.TryStartFill): they only claim free or clean frames, so
// readahead can never push dirty blocks out of memory — the NVRAM
// write policies keep their residency guarantee — and never stalls
// behind the flusher.

// maybeReadahead runs the sequential detector and issues the next
// readahead batch. Caller holds f.mu; off/n are the clamped range
// the current read returns.
func (v *Volume) maybeReadahead(t sched.Task, f *File, off, n int64) {
	ra := v.fs.ra
	if ra <= 0 || n <= 0 {
		return
	}
	if f.ino.Type != core.TypeRegular {
		// Directories and symlinks are read under the namespace
		// lock, and multimedia files run their own rate-paced
		// prefetch thread with drop-behind blocks.
		return
	}
	if off == 0 || off != f.raNext {
		// A rewind resets the detector; anything else breaks the
		// streak (offset 0 starts a fresh stream).
		if f.raStreak > 0 {
			v.fs.st.RARandoms.Inc()
		}
		f.raStreak = 0
		if off == 0 {
			f.raIssued = 0
		}
	}
	f.raStreak++
	f.raNext = off + n
	if f.raStreak < 2 {
		return // one read is a point, two make a stream
	}
	if f.raStreak == 2 {
		v.fs.st.RAStreams.Inc()
	}
	lastBlk := core.BlockNo((off + n - 1) / core.BlockSize)
	eofBlk := core.BlockNo((f.ino.Size - 1) / core.BlockSize)
	start := lastBlk + 1
	if start < f.raIssued {
		start = f.raIssued
	}
	end := lastBlk + core.BlockNo(ra)
	if end > eofBlk {
		end = eofBlk
	}
	if start > end {
		return
	}
	f.raIssued = end + 1
	if f.raDone == nil {
		f.raDone = v.fs.k.NewCond("fsys.radone")
	}
	f.raInflight++
	v.fs.st.Readaheads.Inc()
	ino, size := f.ino, f.ino.Size
	v.fs.k.Go("fsys.readahead", func(rt sched.Task) {
		defer func() {
			f.mu.Lock(rt)
			f.raInflight--
			if f.raInflight == 0 {
				f.raDone.Broadcast()
			}
			f.mu.Unlock(rt)
		}()
		// Claim a maximal run of consecutive frames, then fill it
		// with clustered ReadRunVec calls — one device request per
		// on-disk run instead of one per block. With clustering off
		// every call covers exactly one block, the classic
		// fill-by-fill pipeline. A refused block (cached, being
		// filled, or no clean frame) is skipped and ends the run; a
		// failed fill leaves its blocks for the demand read.
		var frames []*cache.Block
		var vec fillVec
		for blk := start; blk <= end; blk++ {
			frames, blk = v.claimRun(rt, ino.ID, blk, end, frames[:0])
			if len(frames) > 0 {
				v.fill(rt, ino, frames, &vec, size)
			}
		}
	})
}

// waitReadaheadLocked fences the readahead pipeline: it returns once
// no batch is in flight for f, so a truncate or delete can discard
// the file's cache blocks without a late fill re-inserting stale
// data behind it. Caller holds f.mu; new batches cannot start while
// it is held.
func (f *File) waitReadaheadLocked(t sched.Task) {
	for f.raInflight > 0 {
		f.raDone.Wait(t, f.mu)
	}
}
