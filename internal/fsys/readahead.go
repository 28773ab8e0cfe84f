package fsys

import (
	"sync"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/layout"
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
// readahead batch as a kernel task over a pooled raBatch. Caller holds
// f.mu; off/n are the clamped range the current read returns.
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
	b := raBatches.Get().(*raBatch)
	if b.run == nil {
		b.run = b.fill // bound once per batch: a method value allocates
	}
	b.v, b.f, b.ino, b.size, b.start, b.end = v, f, f.ino, f.ino.Size, start, end
	v.fs.k.Go("fsys.readahead", b.run)
}

// raBatch is one readahead batch: blocks start..end of file f, whose
// inode and size it took when issued. Batches are lent from raBatches
// with their body bound once as run, and keep their frame list and
// fill vector from use to use, so a warm stream issues a batch
// without allocating.
type raBatch struct {
	v          *Volume
	f          *File
	ino        *layout.Inode
	size       int64
	start, end core.BlockNo
	frames     []*cache.Block
	vec        fillVec
	run        func(sched.Task)
}

var raBatches = sync.Pool{New: func() any { return new(raBatch) }}

// fill is the batch body. It claims a maximal run of consecutive
// frames, then fills it with clustered ReadRunVec calls — one device
// request per on-disk run instead of one per block. With clustering
// off every call covers exactly one block, the classic fill-by-fill
// pipeline. A refused block (cached, being filled, or no clean frame)
// is skipped and ends the run; a failed fill leaves its blocks for the
// demand read.
func (b *raBatch) fill(t sched.Task) {
	defer b.done(t)
	for blk := b.start; blk <= b.end; blk++ {
		b.frames, blk = b.v.claimRun(t, b.ino.ID, blk, b.end, b.frames[:0])
		if len(b.frames) > 0 {
			b.v.fill(t, b.ino, b.frames, &b.vec, b.size)
		}
	}
}

// done counts the batch out of its file's fence and returns it to
// raBatches, dropping its references to the file and the frames.
func (b *raBatch) done(t sched.Task) {
	f := b.f
	f.mu.Lock(t)
	f.raInflight--
	if f.raInflight == 0 {
		f.raDone.Broadcast()
	}
	f.mu.Unlock(t)
	clear(b.frames)
	b.frames = b.frames[:0]
	b.v, b.f, b.ino = nil, nil, nil
	raBatches.Put(b)
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
