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
	for done < n {
		pos := off + done
		blk := core.BlockNo(pos / core.BlockSize)
		bo := pos % core.BlockSize
		chunk := int64(core.BlockSize) - bo
		if chunk > n-done {
			chunk = n - done
		}
		key := core.BlockKey{Vol: v.ID, File: f.ino.ID, Blk: blk}
		fs.st.ReadLookups.Inc()
		var b *cache.Block
		var hit bool
		_ = fs.charge(t, op, telemetry.StageCache, func() error {
			b, hit = fs.cache.GetBlock(t, key)
			return nil
		})
		if hit {
			fs.st.ReadHits.Inc()
		} else {
			if err := fs.charge(t, op, telemetry.StageDisk, func() error {
				return v.readMissRun(t, f, blk, b, bo+(n-done))
			}); err != nil {
				fs.cache.FillFailed(t, b)
				return done, err
			}
			size := core.BlockSize
			if rem := f.ino.Size - int64(blk)*core.BlockSize; rem < int64(size) {
				size = int(rem)
			}
			fs.cache.Filled(t, b, size)
		}
		b.NoCache = f.behavior.dropBehind()
		// Move the bytes to the caller.
		if buf != nil && b.Data != nil {
			fs.mover.Move(buf[done:], b.Data[bo:], int(chunk))
		} else if c := fs.mover.CopyCost(int(chunk)); c > 0 {
			t.Sleep(time.Duration(c))
		}
		fs.cache.Release(t, b)
		done += chunk
	}
	fs.st.BytesRead.Add(done)
	return done, nil
}

// demandRunMax bounds how many blocks one clustered cold miss
// fetches; the layout clamps further at its own run and clustering
// boundaries.
const demandRunMax = 32

// readMissRun fills demand-miss frame b (block blk of f). When the
// frame carries data and the read covers more blocks — or the file
// is being streamed sequentially — it also claims the following frames
// and fills the whole on-disk run with one scatter-gather request,
// so a cold stream gets clustering before the readahead pipeline has
// warmed up. Extra frames are completed here; b stays filling for the
// caller's Filled/FillFailed. want is how many bytes from the start
// of blk the current read still covers. Caller holds f's data lock.
func (v *Volume) readMissRun(t sched.Task, f *File, blk core.BlockNo, b *cache.Block, want int64) error {
	fs := v.fs
	if v.sim || b.Data == nil {
		return v.lay.ReadBlock(t, f.ino, blk, b.Data)
	}
	nblks := int((want + core.BlockSize - 1) / core.BlockSize)
	if f.raStreak >= 2 && nblks < demandRunMax {
		nblks = demandRunMax // streaming: fetch the whole run
	}
	if max := int((f.ino.Size-1)/core.BlockSize) - int(blk) + 1; nblks > max {
		nblks = max
	}
	if nblks > demandRunMax {
		nblks = demandRunMax
	}
	if nblks <= 1 {
		return v.lay.ReadBlock(t, f.ino, blk, b.Data)
	}
	// Claim follow-on frames; a cached block or frame shortage ends
	// the run early (TryStartFill never blocks or evicts dirty data).
	extra := make([]*cache.Block, 0, nblks-1)
	for i := 1; i < nblks; i++ {
		key := core.BlockKey{Vol: v.ID, File: f.ino.ID, Blk: blk + core.BlockNo(i)}
		eb, ok := fs.cache.TryStartFill(t, key)
		if !ok {
			break
		}
		extra = append(extra, eb)
	}
	abandon := func(from int) {
		for _, eb := range extra[from:] {
			fs.cache.FillFailed(t, eb)
		}
	}
	if len(extra) == 0 {
		return v.lay.ReadBlock(t, f.ino, blk, b.Data)
	}
	bufs := make([][]byte, 1+len(extra))
	bufs[0] = b.Data
	for i, eb := range extra {
		bufs[i+1] = eb.Data
	}
	got, err := v.lay.ReadRunVec(t, f.ino, blk, len(bufs), bufs)
	if err != nil {
		abandon(0)
		return err
	}
	for i := 1; i < got && i-1 < len(extra); i++ {
		size := core.BlockSize
		if rem := f.ino.Size - int64(blk+core.BlockNo(i))*core.BlockSize; rem < int64(size) {
			size = int(rem)
		}
		fs.cache.Filled(t, extra[i-1], size)
	}
	if got-1 < len(extra) {
		abandon(got - 1) // short run: free the unfilled claims
	}
	return nil
}

// readBorrow reads like readData but hands the bytes back as
// segments aliasing the cache frames instead of copying them out:
// every covered frame stays pinned and loaned (cache.Borrow) so a
// zero-copy reply can writev it to the socket. The returned release
// must be called exactly once, after the bytes have left the
// process; until then writers to those blocks wait in BeginWrite
// (flushes still proceed — reads and flushes share the frame
// read-only). The read is short when every other frame of a shard is
// held: past its first block it never waits for other tasks' holds,
// since it holds frames itself. Caller holds f's data lock for the
// call itself; the loans outlive it.
func (v *Volume) readBorrow(t sched.Task, f *File, off, n int64) (segs [][]byte, got int64, release func(sched.Task), err error) {
	fs := v.fs
	if off >= f.ino.Size {
		return nil, 0, func(sched.Task) {}, nil
	}
	if off+n > f.ino.Size {
		n = f.ino.Size - off
	}
	v.maybeReadahead(t, f, off, n)
	op := fs.tr.Current(t)
	var frames []*cache.Block
	release = func(rt sched.Task) {
		for _, b := range frames {
			fs.cache.Unborrow(rt, b)
			fs.cache.Release(rt, b)
		}
	}
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
			if len(frames) == 0 {
				b, hit = fs.cache.GetBlock(t, key)
			} else {
				b, hit = fs.cache.GetBlockHolding(t, key)
			}
			return nil
		})
		if b == nil {
			break // only held frames left: a short read (RFC 1813 allows it)
		}
		fs.st.ReadLookups.Inc()
		if hit {
			fs.st.ReadHits.Inc()
		} else {
			if err := fs.charge(t, op, telemetry.StageDisk, func() error {
				return v.readMissRun(t, f, blk, b, bo+(n-done))
			}); err != nil {
				fs.cache.FillFailed(t, b)
				release(t)
				return nil, 0, nil, err
			}
			size := core.BlockSize
			if rem := f.ino.Size - int64(blk)*core.BlockSize; rem < int64(size) {
				size = int(rem)
			}
			fs.cache.Filled(t, b, size)
		}
		b.NoCache = f.behavior.dropBehind()
		fs.cache.Borrow(t, b)
		frames = append(frames, b) // keep the pin until release
		segs = append(segs, b.Data[bo:bo+chunk])
		done += chunk
	}
	fs.st.BytesRead.Add(done)
	return segs, done, release, nil
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
				// Read-modify-write of an existing block.
				if err := fs.charge(t, op, telemetry.StageDisk, func() error {
					return v.lay.ReadBlock(t, f.ino, blk, b.Data)
				}); err != nil {
					fs.cache.FillFailed(t, b)
					return err
				}
			} else if b.Data != nil {
				for i := range b.Data {
					b.Data[i] = 0
				}
			}
			fs.cache.Filled(t, b, core.BlockSize)
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

// prefetchBlock pulls one block into the cache (multimedia active
// files use it from their thread of control).
func (v *Volume) prefetchBlock(t sched.Task, f *File, blk core.BlockNo) {
	key := core.BlockKey{Vol: v.ID, File: f.ino.ID, Blk: blk}
	b, hit := v.fs.cache.GetBlock(t, key)
	if !hit {
		if err := v.lay.ReadBlock(t, f.ino, blk, b.Data); err != nil {
			v.fs.cache.FillFailed(t, b)
			return
		}
		v.fs.cache.Filled(t, b, core.BlockSize)
	}
	v.fs.cache.Release(t, b)
}

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
