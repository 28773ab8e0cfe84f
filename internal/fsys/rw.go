package fsys

import (
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/sched"
	"repro/internal/telemetry"
)

// charge runs fn and adds its elapsed kernel time to op's stage s.
// With no op bound (nil tracer, or an untraced task) fn runs bare —
// the hot path reads no clock.
func (fs *FS) charge(t sched.Task, op *telemetry.Op, s telemetry.Stage, fn func() error) error {
	if op == nil {
		return fn()
	}
	t0 := fs.k.Now()
	err := fn()
	op.Add(s, fs.k.Now().Sub(t0))
	return err
}

// readData moves n bytes at offset off from file f into buf (nil in
// the simulator) through the block cache. It returns the byte count
// actually read (bounded by EOF). Caller holds f's data lock or is
// the only user.
func (v *Volume) readData(t sched.Task, f *File, off int64, buf []byte, n int64) (int64, error) {
	fs := v.fs
	if f.vec == nil && !v.sim {
		f.vec = new(fillVec)
	}
	return v.readBlocks(t, f, off, n, f.vec, func(b *cache.Block, bo, chunk, at int64) bool {
		if buf != nil && b.Data != nil {
			fs.mover.Move(buf[at:], b.Data[bo:], int(chunk))
		} else if c := fs.mover.CopyCost(int(chunk)); c > 0 {
			t.Sleep(time.Duration(c))
		}
		fs.cache.Release(t, b)
		return false
	})
}

// Loan is a borrowed read: the segments of a ReadBorrowAt, aliasing
// cache frames that stay pinned and loaned (cache.Borrow) until
// Release. A caller that serves read after read keeps one Loan and
// hands it to every ReadBorrowAt: the frame and segment lists and the
// fill vector keep their backing arrays, so a cache-hit read — and,
// once the vector has grown, a miss — allocates nothing.
type Loan struct {
	// Segs are the borrowed bytes, in file order. They are valid until
	// Release and must not be written through.
	Segs   [][]byte
	fs     *FS
	frames []*cache.Block
	vec    fillVec
}

// Release returns every loaned frame — writers waiting in BeginWrite
// may proceed — and empties the loan for reuse. Releasing an empty
// loan does nothing.
func (l *Loan) Release(t sched.Task) {
	for i, b := range l.frames {
		l.fs.cache.Unborrow(t, b)
		l.fs.cache.Release(t, b)
		l.frames[i] = nil
	}
	l.frames = l.frames[:0]
	clear(l.Segs)
	l.Segs = l.Segs[:0]
}

// readBorrow reads like readData but lends the bytes through l instead
// of copying them out: every covered frame stays pinned and loaned
// (cache.Borrow) so a zero-copy reply can writev it to the socket. The
// caller releases l exactly once, after the bytes have left the
// process; until then writers to those blocks wait in BeginWrite
// (flushes still proceed — reads and flushes share the frame
// read-only). The read is short when every other frame of a shard is
// held (see readBlocks). On error nothing stays loaned. Caller holds
// f's data lock for the call itself; the loans outlive it.
func (v *Volume) readBorrow(t sched.Task, f *File, off, n int64, l *Loan) (int64, error) {
	fs := v.fs
	l.fs = fs
	got, err := v.readBlocks(t, f, off, n, &l.vec, func(b *cache.Block, bo, chunk, _ int64) bool {
		fs.cache.Borrow(t, b)
		l.frames = append(l.frames, b) // keep the pin until Release
		l.Segs = append(l.Segs, b.Data[bo:bo+chunk])
		return true
	})
	if err != nil {
		l.Release(t)
		return 0, err
	}
	return got, nil
}

// readBlocks is the one per-block cache loop behind every file read.
// It clamps the range at EOF, kicks readahead, and pins each covered
// block's frame in turn — filling a miss through readMiss — then hands
// the frame to use with the block's byte range [bo, bo+chunk), which
// lands at offset at of the read. use takes over the pin: it releases
// the frame and returns false, or keeps it and returns true. Once the
// read keeps frames, its lookups no longer wait for other tasks' holds
// (GetBlockHolding), and a lookup that finds only held frames ends the
// read short (RFC 1813 allows it). vec is the caller's fill vector. It
// returns the byte count covered.
func (v *Volume) readBlocks(t sched.Task, f *File, off, n int64, vec *fillVec, use func(b *cache.Block, bo, chunk, at int64) (kept bool)) (int64, error) {
	fs := v.fs
	if off >= f.ino.Size {
		return 0, nil
	}
	if off+n > f.ino.Size {
		n = f.ino.Size - off
	}
	// Kick the readahead pipeline before fetching our own blocks, so
	// the background fills overlap with this read's misses too.
	v.maybeReadahead(t, f, off, n)
	op := fs.tr.Current(t)
	var done int64
	holding := false
	for done < n {
		pos := off + done
		blk := core.BlockNo(pos / core.BlockSize)
		bo := pos % core.BlockSize
		chunk := min(core.BlockSize-bo, n-done)
		key := core.BlockKey{Vol: v.ID, File: f.ino.ID, Blk: blk}
		var b *cache.Block
		var hit bool
		_ = fs.charge(t, op, telemetry.StageCache, func() error {
			if holding {
				b, hit = fs.cache.GetBlockHolding(t, key)
			} else {
				b, hit = fs.cache.GetBlock(t, key)
			}
			return nil
		})
		if b == nil {
			break // only held frames left: a short read
		}
		fs.st.ReadLookups.Inc()
		if hit {
			fs.st.ReadHits.Inc()
		} else if err := fs.charge(t, op, telemetry.StageDisk, func() error {
			return v.readMiss(t, f, b, bo+(n-done), vec)
		}); err != nil {
			return done, err
		}
		b.NoCache = f.behavior.dropBehind()
		holding = use(b, bo, chunk, done) || holding
		done += chunk
	}
	fs.st.BytesRead.Add(done)
	return done, nil
}

// demandRunMax bounds how many blocks one clustered cold miss
// fetches; the layout clamps further at its own run and clustering
// boundaries.
const demandRunMax = 32

// readMiss fills demand-miss frame b, a block of f. When the frame
// carries data and the read covers more blocks — or the file is being
// streamed sequentially — it also claims the following frames, so a
// cold stream gets clustered fills before the readahead pipeline has
// warmed up; a simulated miss reads exactly its own block. want is how
// many bytes from the start of b's block the read still covers. Caller
// holds f's data lock.
func (v *Volume) readMiss(t sched.Task, f *File, b *cache.Block, want int64, vec *fillVec) error {
	var claimed [demandRunMax]*cache.Block
	frames := append(claimed[:0], b)
	if !v.sim && b.Data != nil {
		blk := b.Key.Blk
		nblks := int((want + core.BlockSize - 1) / core.BlockSize)
		if f.raStreak >= 2 {
			nblks = demandRunMax // streaming: fetch the whole run
		}
		nblks = min(nblks, demandRunMax, int((f.ino.Size-1)/core.BlockSize)-int(blk)+1)
		frames, _ = v.claimRun(t, f.ino.ID, blk+1, blk+core.BlockNo(nblks-1), frames)
	}
	if filled, err := v.fill(t, f.ino, frames, vec, f.ino.Size); filled == 0 {
		return err
	}
	// b is valid. A failure further down the run left those blocks
	// uncached; their own demand misses retry them.
	return nil
}

// claimRun claims fill frames for the consecutive blocks from..to of
// file id and appends them to frames. It stops at the first block the
// cache refuses — cached, being filled, or no clean frame to be had
// (TryStartFill never blocks or evicts dirty data) — and returns that
// block, or to+1 when it claimed them all.
func (v *Volume) claimRun(t sched.Task, id core.FileID, from, to core.BlockNo, frames []*cache.Block) ([]*cache.Block, core.BlockNo) {
	blk := from
	for ; blk <= to; blk++ {
		b, ok := v.fs.cache.TryStartFill(t, core.BlockKey{Vol: v.ID, File: id, Blk: blk})
		if !ok {
			break
		}
		frames = append(frames, b)
	}
	return frames, blk
}

// fill is the one fill routine, behind demand misses, readahead,
// multimedia prefetch and read-modify-write. frames are claimed
// (filling) frames of consecutive blocks of ino; fill reads them with
// as many ReadRunVec calls as their on-disk runs take and completes
// every frame: Filled with the bytes it holds below eof, or FillFailed
// from the first failing call on. It returns how many frames it filled
// and the error that stopped it. The frames' own buffers form the
// scatter-gather vector the device reads into, built in vec; simulated
// frames carry no bytes and the layout gets nil.
func (v *Volume) fill(t sched.Task, ino *layout.Inode, frames []*cache.Block, vec *fillVec, eof int64) (int, error) {
	bufs := vec.of(frames)
	var err error
	off := 0
	for off < len(frames) {
		var run [][]byte
		if bufs != nil {
			run = bufs[off:]
		}
		var got int
		got, err = v.lay.ReadRunVec(t, ino, frames[off].Key.Blk, len(frames)-off, run)
		if err == nil && got <= 0 {
			err = core.ErrInval // layouts return >= 1; stop rather than spin
		}
		if err != nil {
			for _, b := range frames[off:] {
				v.fs.cache.FillFailed(t, b)
			}
			break
		}
		for _, b := range frames[off : off+got] {
			v.fs.cache.Filled(t, b, int(min(core.BlockSize, eof-int64(b.Key.Blk)*core.BlockSize)))
		}
		off += got
	}
	clear(bufs)
	return off, err
}

// fillVec is a fill's scatter-gather vector: one segment per claimed
// frame, aliasing its Data. Its owner — a File's reads, a Loan, a
// readahead batch — keeps it from fill to fill, so a fill allocates
// nothing once the vector has grown to the owner's longest run.
type fillVec [][]byte

// of points the vector at the frames' buffers, growing it as needed;
// simulated frames carry no bytes and get nil.
func (v *fillVec) of(frames []*cache.Block) [][]byte {
	if frames[0].Data == nil {
		return nil
	}
	if cap(*v) < len(frames) {
		*v = make(fillVec, len(frames))
	}
	bufs := (*v)[:len(frames)]
	for i, b := range frames {
		bufs[i] = b.Data
	}
	return bufs
}

// writeData moves n bytes into file f at offset off through the
// cache, dirtying blocks under the flush policy's dirty-block bound.
// data may be nil in the simulator.
func (v *Volume) writeData(t sched.Task, f *File, off int64, data []byte, n int64) error {
	fs := v.fs
	op := fs.tr.Current(t)
	var done int64
	for done < n {
		pos := off + done
		blk := core.BlockNo(pos / core.BlockSize)
		bo := pos % core.BlockSize
		chunk := int64(core.BlockSize) - bo
		if chunk > n-done {
			chunk = n - done
		}
		key := core.BlockKey{Vol: v.ID, File: f.ino.ID, Blk: blk}
		var b *cache.Block
		var hit bool
		_ = fs.charge(t, op, telemetry.StageCache, func() error {
			b, hit = fs.cache.GetBlock(t, key)
			return nil
		})
		if !hit {
			partial := bo != 0 || chunk < core.BlockSize
			within := int64(blk)*core.BlockSize < f.ino.Size
			if partial && within {
				// Read-modify-write of an existing block, filled as a
				// whole block: the write sets its valid bytes below.
				var vec fillVec
				if err := fs.charge(t, op, telemetry.StageDisk, func() error {
					_, err := v.fill(t, f.ino, []*cache.Block{b}, &vec, blockEnd(blk))
					return err
				}); err != nil {
					return err
				}
			} else {
				clear(b.Data)
				fs.cache.Filled(t, b, core.BlockSize)
			}
		}
		if data != nil && b.Data != nil {
			if hit {
				// The block is visible to the flusher: reserve it so
				// a concurrent flush never copies a half-updated
				// frame (MarkDirty publishes and releases).
				fs.cache.BeginWrite(t, b)
			}
			fs.mover.Move(b.Data[bo:], data[done:], int(chunk))
		} else if c := fs.mover.CopyCost(int(chunk)); c > 0 {
			t.Sleep(time.Duration(c))
		}
		if sz := int(bo + chunk); sz > b.Size {
			b.Size = sz
		}
		b.NoCache = f.behavior.dropBehind()
		// MarkDirty is where a full NVRAM parks the writer — cache
		// stage, the paper's dirty-drain bottleneck.
		_ = fs.charge(t, op, telemetry.StageCache, func() error {
			fs.cache.MarkDirty(t, b)
			return nil
		})
		fs.cache.Release(t, b)
		done += chunk
	}
	if off+n > f.ino.Size {
		if fs.k.Virtual() {
			// Cooperative kernel: direct update, and a schedule
			// identical to the pre-seam simulator.
			f.ino.Size = off + n
		} else {
			// Publish the growth under the layout's lock: the flusher
			// may be packing this inode right now.
			v.lay.GrowSize(t, f.ino, off+n)
		}
	}
	fs.st.BytesWritten.Add(n)
	return nil
}

// prefetchBlock pulls one block into the cache, filled as a whole
// block (multimedia active files use it from their thread of
// control). A failed fill leaves the block uncached, for the demand
// read to retry.
func (v *Volume) prefetchBlock(t sched.Task, f *File, blk core.BlockNo) {
	key := core.BlockKey{Vol: v.ID, File: f.ino.ID, Blk: blk}
	b, hit := v.fs.cache.GetBlock(t, key)
	if !hit {
		var vec fillVec
		if _, err := v.fill(t, f.ino, []*cache.Block{b}, &vec, blockEnd(blk)); err != nil {
			return
		}
	}
	v.fs.cache.Release(t, b)
}

// blockEnd is the file offset just past block blk.
func blockEnd(blk core.BlockNo) int64 { return int64(blk+1) * core.BlockSize }

// mutateIno applies a scalar inode-field update (Nlink, exact size)
// under the layout's metadata lock on the real kernel, where the
// cache flusher may be encoding the same inode concurrently — the
// GrowSize publication rule, generalized. The virtual kernel is
// cooperative: direct call, simulated schedules untouched. fn must
// only touch inode fields; persisting the change (UpdateInode) stays
// with the caller.
func (v *Volume) mutateIno(t sched.Task, ino *layout.Inode, fn func()) {
	if v.fs.k.Virtual() {
		fn()
		return
	}
	v.lay.WithInode(t, ino, fn)
}

// truncateLocked shrinks file data: cached blocks past the boundary
// are discarded (dirty ones count as saved writes) and the layout
// frees the storage. Caller holds v.mu or f.mu appropriately.
func (v *Volume) truncateLocked(t sched.Task, f *File, size int64) error {
	from := core.BlockNo(layout.BlocksForSize(size))
	// Fence the readahead pipeline: a fill landing after the discard
	// would re-insert pre-truncate data.
	f.waitReadaheadLocked(t)
	f.raStreak = 0
	if f.raIssued > from {
		f.raIssued = from
	}
	v.fs.cache.DiscardFile(t, v.ID, f.ino.ID, from)
	if err := v.lay.Truncate(t, f.ino, size); err != nil {
		return err
	}
	return v.lay.UpdateInode(t, f.ino)
}

// destroyLocked releases a removed file's storage once the last
// reference is gone. Caller holds v.mu.
func (v *Volume) destroyLocked(t sched.Task, f *File) error {
	// Fence in-flight readahead before discarding: layouts that
	// recycle inode numbers (FFS) must not find stale blocks of the
	// dead file resident under a reused ID. The file has no open
	// handles here, so no new batches can start once in-flight ones
	// drain.
	f.mu.Lock(t)
	f.waitReadaheadLocked(t)
	v.fs.cache.DiscardFile(t, v.ID, f.ino.ID, 0)
	f.mu.Unlock(t)
	delete(v.files, f.ino.ID)
	return v.lay.FreeInode(t, f.ino.ID)
}
