package fsys

import (
	"sort"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/sched"
)

// ReplayStats summarizes one ReplayNVRAM pass.
type ReplayStats struct {
	// Replayed / Dropped count data-block survivors written back /
	// discarded (no durable or replayed inode covers them).
	Replayed int
	Dropped  int
	// DirBlocks counts directory and symlink survivors superseded by
	// the intent replay: their content is rebuilt from intents, so the
	// stale crash-time images are not written back.
	DirBlocks int
	// IntentsApplied / IntentsNoop / IntentsDropped count intent-log
	// records re-executed, found already durable, and unappliable
	// (e.g. the parent directory itself never survived).
	IntentsApplied int
	IntentsNoop    int
	IntentsDropped int
	// Remapped counts files that came back under a fresh inode number
	// because the original allocation never became durable.
	Remapped int
}

// Blocks returns Replayed+Dropped+DirBlocks — the survivor count the
// pass consumed, for cross-checking against the crash report.
func (s ReplayStats) Blocks() int { return s.Replayed + s.Dropped + s.DirBlocks }

// ReplayNVRAM brings a freshly recovered file system up to the state
// the battery-backed cache acknowledged before the power cut. It has
// two phases:
//
// Phase 1 replays the unretired intent log in sequence order: each
// intent is an acknowledged namespace operation (create, symlink
// body, remove, rename, truncate) whose covering checkpoint had not
// become durable at the cut. Replay is idempotent — an operation the
// layout already holds is a no-op — and survives inode renumbering: a
// create whose original inode never became durable is re-executed
// against the allocator and the new number recorded in a remap table
// that later intents and phase 2 consult. Replayed operations are
// re-recorded into the (new) cache's intent log so a second cut
// during or after recovery replays them again.
//
// Phase 2 writes the surviving dirty data blocks (cache.Crash's
// Survivors) back through the layouts, with the remap applied. This
// is the remount half of the paper's NVRAM-safety argument: an
// acknowledged write either reached the log before the cut
// (roll-forward finds it) or was NVRAM-resident (this replays it).
// Directory and symlink survivors are skipped when intents are in
// play: every unretired directory mutation has its intent, and phase
// 1 already rebuilt the content — writing the crash-time image back
// would clobber it. Survivors of files with neither a durable inode
// nor a covering intent are dropped and counted (with the intent log
// disabled this reproduces the historical drop-on-create behavior).
//
// Call it after the volumes are mounted, and Sync afterwards to make
// the replayed state durable.
func (fs *FS) ReplayNVRAM(t sched.Task, survivors []cache.Survivor, intents []cache.Intent) (ReplayStats, error) {
	var st ReplayStats
	fs.replaying = true
	defer func() { fs.replaying = false }()

	remaps := make(map[core.VolumeID]map[core.FileID]core.FileID)
	remapFor := func(vol core.VolumeID) map[core.FileID]core.FileID {
		m := remaps[vol]
		if m == nil {
			m = make(map[core.FileID]core.FileID)
			remaps[vol] = m
		}
		return m
	}

	// Phase 1: namespace intents, oldest first (the log keeps them in
	// sequence order; sort defensively for merged double-cut logs).
	sort.SliceStable(intents, func(i, j int) bool { return intents[i].Seq < intents[j].Seq })
	for i := range intents {
		it := intents[i]
		v := fs.vols[it.Vol]
		if v == nil {
			st.IntentsDropped++
			continue
		}
		applied, err := v.replayIntent(t, it, remapFor(it.Vol), &st)
		if err != nil {
			return st, err
		}
		if applied {
			st.IntentsApplied++
		}
	}

	// Phase 2: surviving data blocks, grouped by file.
	intentMode := fs.cache.Intents() != nil || len(intents) > 0
	for start := 0; start < len(survivors); {
		end := start
		key := survivors[start].Key
		for end < len(survivors) &&
			survivors[end].Key.Vol == key.Vol && survivors[end].Key.File == key.File {
			end++
		}
		group := survivors[start:end]
		start = end

		v := fs.vols[key.Vol]
		if v == nil {
			st.Dropped += len(group)
			continue
		}
		id := key.File
		if n, ok := remaps[key.Vol][id]; ok {
			id = n
		}
		ino, gerr := v.lay.GetInode(t, id)
		if gerr != nil {
			st.Dropped += len(group)
			continue
		}
		if intentMode && (ino.Type == core.TypeDirectory || ino.Type == core.TypeSymlink) {
			// Namespace content is authoritative in the intent replay;
			// the crash-time directory image may predate it.
			st.DirBlocks += len(group)
			continue
		}
		writes := make([]layout.BlockWrite, 0, len(group))
		size := ino.Size
		for _, s := range group {
			writes = append(writes, layout.BlockWrite{Blk: s.Key.Blk, Data: s.Data, Size: s.Size})
			if end := int64(s.Key.Blk)*core.BlockSize + int64(s.Size); end > size {
				size = end
			}
		}
		// Grow the size first so the layout (and a striped array's
		// home-shadow mirror) persists the extension with the blocks.
		v.mutateIno(t, ino, func() { ino.Size = size })
		if werr := v.lay.WriteBlocks(t, ino, writes); werr != nil {
			return st, werr
		}
		if uerr := v.lay.UpdateInode(t, ino); uerr != nil {
			return st, uerr
		}
		st.Replayed += len(writes)
	}
	return st, nil
}

// replayIntent re-executes one acknowledged namespace operation
// against the recovered volume. Returns applied=true when it changed
// the file system; counts no-ops and unappliable intents in st.
// Layout I/O errors (a second power cut) abort the replay.
func (v *Volume) replayIntent(t sched.Task, it cache.Intent, remap map[core.FileID]core.FileID, st *ReplayStats) (bool, error) {
	mapID := func(id core.FileID) core.FileID {
		if n, ok := remap[id]; ok {
			return n
		}
		return id
	}
	v.mu.Lock(t)
	defer v.mu.Unlock(t)

	switch it.Op {
	case cache.IntentCreate:
		parent, err := v.dirLocked(t, mapID(it.Parent))
		if err != nil {
			st.IntentsDropped++
			return false, nil
		}
		// From here on it.File names this life of the file: a remap
		// an earlier life of a recycled number got no longer applies,
		// because later intents and the data survivors are this life's.
		bind := func(id core.FileID) {
			if id == it.File {
				delete(remap, it.File)
			} else {
				remap[it.File] = id
			}
		}
		if id, ok := parent.entries[it.Name]; ok {
			if _, err := v.getLocked(t, id); err == nil {
				// Entry and inode both durable (or already replayed).
				bind(id)
				st.IntentsNoop++
				return false, nil
			}
			// Dangling entry: the directory block outlived the inode.
			// Fall through and re-allocate under the same name.
		}
		// Only the directory entry was lost? If the acknowledged inode
		// itself became durable (FFS writes it synchronously; LFS may
		// have packed it), adopt it: the file keeps its identity —
		// number, generation, content — and pre-crash handles stay
		// valid. The generation check rejects a different life of a
		// recycled slot.
		if it.Gen != 0 {
			if f, err := v.getLocked(t, it.File); err == nil &&
				f.ino.Version == it.Gen && f.ino.Type == it.Type {
				bind(it.File)
				parent.entries[it.Name] = f.ino.ID
				if it.Type == core.TypeDirectory {
					v.mutateIno(t, parent.ino, func() { parent.ino.Nlink++ })
					if err := v.lay.UpdateInode(t, parent.ino); err != nil {
						return false, err
					}
				}
				if err := v.writeDir(t, parent); err != nil {
					return false, err
				}
				v.logIntent(t, cache.Intent{
					Op: cache.IntentCreate, File: f.ino.ID, Gen: f.ino.Version,
					Parent: parent.ino.ID, Name: it.Name, Type: it.Type,
				})
				return true, nil
			}
		}
		ino, err := v.lay.AllocInode(t, it.Type)
		if err != nil {
			return false, err
		}
		bind(ino.ID)
		if ino.ID != it.File {
			st.Remapped++
		}
		f := v.instantiate(ino)
		v.files[ino.ID] = f
		parent.entries[it.Name] = ino.ID
		if it.Type == core.TypeDirectory {
			v.mutateIno(t, parent.ino, func() { parent.ino.Nlink++ })
			v.mutateIno(t, ino, func() { ino.Nlink = 2 })
			if err := v.lay.UpdateInode(t, parent.ino); err != nil {
				return false, err
			}
			if err := v.lay.UpdateInode(t, ino); err != nil {
				return false, err
			}
		}
		if err := v.writeDir(t, parent); err != nil {
			return false, err
		}
		v.logIntent(t, cache.Intent{
			Op: cache.IntentCreate, File: ino.ID, Gen: ino.Version,
			Parent: parent.ino.ID, Name: it.Name, Type: it.Type,
		})
		return true, nil

	case cache.IntentSymlink:
		f, err := v.getLocked(t, mapID(it.File))
		if err != nil || f.ino.Type != core.TypeSymlink {
			st.IntentsDropped++
			return false, nil
		}
		if f.target == it.Name2 {
			st.IntentsNoop++
			return false, nil
		}
		f.target = it.Name2
		if err := v.writeSymlink(t, f); err != nil {
			return false, err
		}
		v.logIntent(t, cache.Intent{
			Op: cache.IntentSymlink, File: f.ino.ID, Name2: it.Name2,
		})
		return true, nil

	case cache.IntentRemove:
		parent, err := v.dirLocked(t, mapID(it.Parent))
		if err != nil {
			st.IntentsDropped++
			return false, nil
		}
		id, ok := parent.entries[it.Name]
		if !ok {
			st.IntentsNoop++ // never durable, or already replayed
			return false, nil
		}
		delete(parent.entries, it.Name)
		f, gerr := v.getLocked(t, id)
		if gerr == nil && f.ino.Type == core.TypeDirectory {
			v.mutateIno(t, parent.ino, func() { parent.ino.Nlink-- })
			if err := v.lay.UpdateInode(t, parent.ino); err != nil {
				return false, err
			}
		}
		if err := v.writeDir(t, parent); err != nil {
			return false, err
		}
		if gerr == nil {
			v.mutateIno(t, f.ino, func() {
				if f.ino.Nlink > 0 {
					f.ino.Nlink--
				}
			})
			if err := v.destroyLocked(t, f); err != nil {
				return false, err
			}
		}
		v.logIntent(t, cache.Intent{
			Op: cache.IntentRemove, File: id,
			Parent: parent.ino.ID, Name: it.Name, Type: it.Type,
		})
		return true, nil

	case cache.IntentRename:
		fp, err := v.dirLocked(t, mapID(it.Parent))
		if err != nil {
			st.IntentsDropped++
			return false, nil
		}
		tp, err := v.dirLocked(t, mapID(it.Parent2))
		if err != nil {
			st.IntentsDropped++
			return false, nil
		}
		id, ok := fp.entries[it.Name]
		if !ok {
			if tp.entries[it.Name2] == mapID(it.File) {
				st.IntentsNoop++ // already moved
			} else {
				st.IntentsDropped++
			}
			return false, nil
		}
		delete(fp.entries, it.Name)
		tp.entries[it.Name2] = id
		if err := v.writeDir(t, fp); err != nil {
			return false, err
		}
		if tp != fp {
			if err := v.writeDir(t, tp); err != nil {
				return false, err
			}
		}
		v.logIntent(t, cache.Intent{
			Op: cache.IntentRename, File: id,
			Parent: fp.ino.ID, Name: it.Name,
			Parent2: tp.ino.ID, Name2: it.Name2,
		})
		return true, nil

	case cache.IntentTruncate:
		f, err := v.getLocked(t, mapID(it.File))
		if err != nil {
			st.IntentsDropped++
			return false, nil
		}
		size := it.Size
		switch {
		case size < f.ino.Size:
			if err := v.truncateLocked(t, f, size); err != nil {
				return false, err
			}
		case size > f.ino.Size:
			v.mutateIno(t, f.ino, func() { f.ino.Size = size })
			if err := v.lay.UpdateInode(t, f.ino); err != nil {
				return false, err
			}
		default:
			st.IntentsNoop++
			return false, nil
		}
		v.logIntent(t, cache.Intent{
			Op: cache.IntentTruncate, File: f.ino.ID, Size: it.Size,
		})
		return true, nil
	}
	st.IntentsDropped++ // unknown op from a future format: skip
	return false, nil
}
