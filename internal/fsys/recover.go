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
// Call it on a front-end built after the cut, once the volumes are
// recovered and mounted (and an array's partial-parity records
// replayed), and SyncAll afterwards to make the replayed state
// durable: stack.Mount is that sequence, for the server and the
// simulator alike.
func (fs *FS) ReplayNVRAM(t sched.Task, survivors []cache.Survivor, intents []cache.Intent) (ReplayStats, error) {
	var st ReplayStats
	fs.replaying = true
	defer func() { fs.replaying = false }()

	remaps := make(map[core.VolumeID]remap)
	remapFor := func(vol core.VolumeID) remap {
		m := remaps[vol]
		if m == nil {
			m = make(remap)
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
		ino, gerr := v.arr.GetInode(t, remaps[key.Vol].of(key.File))
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
		if werr := v.arr.WriteBlocks(t, ino, writes); werr != nil {
			return st, werr
		}
		if uerr := v.arr.UpdateInode(t, ino); uerr != nil {
			return st, uerr
		}
		st.Replayed += len(writes)
	}
	return st, nil
}

// remap maps the inode numbers intent replay re-allocated to their
// new numbers.
type remap map[core.FileID]core.FileID

// of returns id's number after replay.
func (m remap) of(id core.FileID) core.FileID {
	if n, ok := m[id]; ok {
		return n
	}
	return id
}

// replayIntent re-executes one acknowledged namespace operation
// against the recovered volume through the same core the live
// operation ran. Returns applied=true when it changed the file system;
// counts no-ops and unappliable intents (a namespace refusal from the
// core) in st. Layout I/O errors (a second power cut) abort the replay.
func (v *Volume) replayIntent(t sched.Task, it cache.Intent, rm remap, st *ReplayStats) (bool, error) {
	v.mu.Lock(t)
	defer v.mu.Unlock(t)
	var (
		err  error
		noop bool
		dirs []*File // directories whose entries the intent names
	)
	switch it.Op {
	case cache.IntentCreate:
		var parent *File
		if parent, err = v.dirLocked(t, rm.of(it.Parent)); err != nil {
			break
		}
		dirs = append(dirs, parent)
		// From here on it.File names this life of the file: a remap
		// an earlier life of a recycled number got no longer applies,
		// because later intents and the data survivors are this life's.
		bind := func(id core.FileID) {
			if id == it.File {
				delete(rm, it.File)
			} else {
				rm[it.File] = id
			}
		}
		if id, ok := parent.entries[it.Name]; ok {
			if _, gerr := v.getLocked(t, id); gerr == nil {
				// Entry and inode both durable (or already replayed).
				bind(id)
				noop = true
				break
			}
			// Dangling entry: the directory block outlived the inode;
			// create re-allocates under the same name.
		}
		// Only the directory entry was lost? If the acknowledged inode
		// itself became durable (FFS writes it synchronously; LFS may
		// have packed it), adopt it: the file keeps its identity —
		// number, generation, content — and pre-crash handles stay
		// valid. The generation check rejects a different life of a
		// recycled slot.
		var f *File
		if it.Gen != 0 {
			if g, gerr := v.getLocked(t, it.File); gerr == nil &&
				g.ino.Version == it.Gen && g.ino.Type == it.Type {
				f = g
			}
		}
		if f, err = v.create(t, parent, it.Name, it.Type, f); err == nil {
			bind(f.ino.ID)
			if f.ino.ID != it.File {
				st.Remapped++
			}
		}

	case cache.IntentSymlink:
		var f *File
		switch f, err = v.getLocked(t, rm.of(it.File)); {
		case err != nil:
		case f.ino.Type != core.TypeSymlink:
			err = core.ErrInval
		case f.target == it.Name2:
			noop = true
		default:
			err = v.writeSymlink(t, f, it.Name2)
		}

	case cache.IntentRemove:
		var parent *File
		if parent, err = v.dirLocked(t, rm.of(it.Parent)); err != nil {
			break
		}
		dirs = append(dirs, parent)
		id, ok := parent.entries[it.Name]
		if !ok {
			noop = true // never durable, or already replayed
			break
		}
		if f := v.files[id]; f != nil {
			// Handles from before the cut died with it (the simulator
			// recovers in place, its replayer's handles still open):
			// the file goes now, not at a last close.
			f.refs = 0
		}
		err = v.remove(t, parent, it.Name, rmAny)

	case cache.IntentRename:
		var fp, tp *File
		if fp, err = v.dirLocked(t, rm.of(it.Parent)); err == nil {
			tp, err = v.dirLocked(t, rm.of(it.Parent2))
		}
		if err != nil {
			break
		}
		dirs = append(dirs, fp, tp)
		if _, ok := fp.entries[it.Name]; !ok {
			if tp.entries[it.Name2] != rm.of(it.File) {
				err = core.ErrNotFound
			}
			noop = err == nil // already moved
			break
		}
		if id, ok := tp.entries[it.Name2]; ok {
			// The target name is taken: by this very file (the
			// rename reached the disk half done) or by a later life
			// that a later intent links again. Either way it makes
			// room; nothing is freed.
			g, _ := v.getLocked(t, id)
			v.detach(t, tp, it.Name2, g)
		}
		err = v.rename(t, fp, it.Name, tp, it.Name2)

	case cache.IntentTruncate:
		var f *File
		switch f, err = v.getLocked(t, rm.of(it.File)); {
		case err != nil:
		case it.Size == f.ino.Size:
			noop = true
		default:
			err = v.setSize(t, f, it.Size)
		}

	default:
		st.IntentsDropped++ // unknown op from a future format: skip
		return false, nil
	}
	refused := false
	switch err {
	case nil:
	case core.ErrNotFound, core.ErrExists, core.ErrNotEmpty, core.ErrIsDir, core.ErrNotDir, core.ErrInval, core.ErrNameTooLon:
		refused = true // the op no longer applies to the recovered tree
	default:
		return false, err
	}
	for _, d := range dirs {
		if err := v.relink(t, d); err != nil {
			return false, err
		}
	}
	switch {
	case refused:
		st.IntentsDropped++
	case noop:
		st.IntentsNoop++
	}
	return !refused && !noop, nil
}
