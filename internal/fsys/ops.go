package fsys

import (
	"sort"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/sched"
)

// Open returns a handle on an existing file.
func (v *Volume) Open(t sched.Task, path string) (*Handle, error) {
	v.mu.Lock(t)
	f, err := v.lookupLocked(t, path)
	if err != nil {
		v.mu.Unlock(t)
		return nil, err
	}
	f.refs++
	v.mu.Unlock(t)
	f.behavior.opened(t, f)
	v.fs.st.Opens.Inc()
	return &Handle{f: f}, nil
}

// Create makes a new file of the given type at path and opens it.
// Parent directories must exist.
func (v *Volume) Create(t sched.Task, path string, typ core.FileType) (*Handle, error) {
	v.mu.Lock(t)
	h, err := v.createLocked(t, path, typ)
	v.mu.Unlock(t)
	if err == nil {
		h.f.behavior.opened(t, h.f)
		v.fs.st.Creates.Inc()
	}
	return h, err
}

func (v *Volume) createLocked(t sched.Task, path string, typ core.FileType) (*Handle, error) {
	parent, name, err := v.resolveLocked(t, path)
	if err != nil {
		return nil, err
	}
	if _, exists := parent.entries[name]; exists {
		return nil, core.ErrExists
	}
	ino, err := v.lay.AllocInode(t, typ)
	if err != nil {
		return nil, err
	}
	f := v.instantiate(ino)
	v.files[ino.ID] = f
	parent.entries[name] = ino.ID
	if typ == core.TypeDirectory {
		v.mutateIno(t, parent.ino, func() { parent.ino.Nlink++ })
		v.mutateIno(t, ino, func() { ino.Nlink = 2 })
		if err := v.lay.UpdateInode(t, parent.ino); err != nil {
			return nil, err
		}
	}
	if err := v.writeDir(t, parent); err != nil {
		return nil, err
	}
	f.refs++
	v.logIntent(t, cache.Intent{
		Op: cache.IntentCreate, File: ino.ID, Gen: ino.Version,
		Parent: parent.ino.ID, Name: name, Type: typ,
	})
	return &Handle{f: f}, nil
}

// Mkdir creates a directory.
func (v *Volume) Mkdir(t sched.Task, path string) error {
	h, err := v.Create(t, path, core.TypeDirectory)
	if err != nil {
		return err
	}
	return v.Close(t, h)
}

// Symlink creates a symbolic link holding target.
func (v *Volume) Symlink(t sched.Task, path, target string) error {
	v.mu.Lock(t)
	defer v.mu.Unlock(t)
	h, err := v.createLocked(t, path, core.TypeSymlink)
	if err != nil {
		return err
	}
	h.f.target = target
	if err := v.writeSymlink(t, h.f); err != nil {
		return err
	}
	h.f.refs--
	// The create intent above recorded the link's birth; this one
	// carries the target so replay can rebuild the link body.
	v.logIntent(t, cache.Intent{
		Op: cache.IntentSymlink, File: h.f.ino.ID, Name2: target,
	})
	return nil
}

// Readlink returns a symlink's target.
func (v *Volume) Readlink(t sched.Task, path string) (string, error) {
	v.mu.Lock(t)
	defer v.mu.Unlock(t)
	f, err := v.lookupLocked(t, path)
	if err != nil {
		return "", err
	}
	if f.ino.Type != core.TypeSymlink {
		return "", core.ErrInval
	}
	return f.target, nil
}

// Close drops a handle; the last close of an unlinked file frees its
// storage.
func (v *Volume) Close(t sched.Task, h *Handle) error {
	v.mu.Lock(t)
	h.f.refs--
	dead := h.f.unlinked && h.f.refs == 0
	var err error
	if dead {
		err = v.destroyLocked(t, h.f)
	}
	v.mu.Unlock(t)
	h.f.behavior.closed(t, h.f)
	v.fs.st.Closes.Inc()
	return err
}

// Read transfers up to n bytes at the handle position, advancing it.
func (v *Volume) Read(t sched.Task, h *Handle, buf []byte, n int64) (int64, error) {
	h.f.mu.Lock(t)
	defer h.f.mu.Unlock(t)
	got, err := v.readData(t, h.f, h.pos, buf, n)
	h.pos += got
	v.fs.st.Reads.Inc()
	return got, err
}

// ReadAt transfers up to n bytes at offset off.
func (v *Volume) ReadAt(t sched.Task, h *Handle, off int64, buf []byte, n int64) (int64, error) {
	h.f.mu.Lock(t)
	defer h.f.mu.Unlock(t)
	v.fs.st.Reads.Inc()
	return v.readData(t, h.f, off, buf, n)
}

// ReadBorrowAt is the zero-copy form of ReadAt: instead of copying
// into a caller buffer it lends l the segments (l.Segs) that alias the
// cache frames, each frame pinned and loaned for the duration. l must
// be empty (new, or released). The caller transmits the segments
// (writev to a socket) and then calls l.Release exactly once — until
// then writers to those blocks wait, though flushes still proceed. ok
// is false when the volume moves no real data; use ReadAt then.
func (v *Volume) ReadBorrowAt(t sched.Task, h *Handle, off, n int64, l *Loan) (got int64, ok bool, err error) {
	if v.sim {
		return 0, false, nil
	}
	h.f.mu.Lock(t)
	defer h.f.mu.Unlock(t)
	v.fs.st.Reads.Inc()
	got, err = v.readBorrow(t, h.f, off, n, l)
	return got, true, err
}

// Write stores n bytes at the handle position, advancing it.
func (v *Volume) Write(t sched.Task, h *Handle, data []byte, n int64) error {
	h.f.mu.Lock(t)
	defer h.f.mu.Unlock(t)
	if err := v.writeData(t, h.f, h.pos, data, n); err != nil {
		return err
	}
	h.pos += n
	v.fs.st.Writes.Inc()
	return v.lay.UpdateInode(t, h.f.ino)
}

// WriteAt stores n bytes at offset off.
func (v *Volume) WriteAt(t sched.Task, h *Handle, off int64, data []byte, n int64) error {
	h.f.mu.Lock(t)
	defer h.f.mu.Unlock(t)
	if err := v.writeData(t, h.f, off, data, n); err != nil {
		return err
	}
	v.fs.st.Writes.Inc()
	return v.lay.UpdateInode(t, h.f.ino)
}

// Truncate sets the file size, discarding cached blocks beyond it.
func (v *Volume) Truncate(t sched.Task, h *Handle, size int64) error {
	h.f.mu.Lock(t)
	defer h.f.mu.Unlock(t)
	if err := v.truncateLocked(t, h.f, size); err != nil {
		return err
	}
	v.logIntent(t, cache.Intent{
		Op: cache.IntentTruncate, File: h.f.ino.ID, Size: size,
	})
	return nil
}

// Fsync writes the file's dirty blocks and the volume metadata.
func (v *Volume) Fsync(t sched.Task, h *Handle) error {
	v.fs.cache.FlushFile(t, v.ID, h.f.ino.ID)
	return v.lay.Sync(t)
}

// Remove unlinks the file at path. Open files live on until the
// last close; the cached dirty blocks of a closed file are simply
// discarded — the write-saving effect of deletes.
func (v *Volume) Remove(t sched.Task, path string) error {
	v.mu.Lock(t)
	defer v.mu.Unlock(t)
	parent, name, err := v.resolveLocked(t, path)
	if err != nil {
		return err
	}
	id, ok := parent.entries[name]
	if !ok {
		return core.ErrNotFound
	}
	f, err := v.getLocked(t, id)
	if err != nil {
		return err
	}
	if f.ino.Type == core.TypeDirectory {
		return core.ErrIsDir
	}
	delete(parent.entries, name)
	if err := v.writeDir(t, parent); err != nil {
		return err
	}
	v.fs.st.Removes.Inc()
	v.logIntent(t, cache.Intent{
		Op: cache.IntentRemove, File: id,
		Parent: parent.ino.ID, Name: name,
	})
	v.mutateIno(t, f.ino, func() {
		if f.ino.Nlink > 0 {
			f.ino.Nlink--
		}
	})
	if f.refs > 0 {
		f.unlinked = true
		return nil
	}
	return v.destroyLocked(t, f)
}

// Rmdir removes an empty directory.
func (v *Volume) Rmdir(t sched.Task, path string) error {
	v.mu.Lock(t)
	defer v.mu.Unlock(t)
	parent, name, err := v.resolveLocked(t, path)
	if err != nil {
		return err
	}
	id, ok := parent.entries[name]
	if !ok {
		return core.ErrNotFound
	}
	d, err := v.getLocked(t, id)
	if err != nil {
		return err
	}
	if d.ino.Type != core.TypeDirectory {
		return core.ErrNotDir
	}
	if len(d.entries) != 0 {
		return core.ErrNotEmpty
	}
	delete(parent.entries, name)
	v.mutateIno(t, parent.ino, func() { parent.ino.Nlink-- })
	if err := v.writeDir(t, parent); err != nil {
		return err
	}
	if err := v.lay.UpdateInode(t, parent.ino); err != nil {
		return err
	}
	v.logIntent(t, cache.Intent{
		Op: cache.IntentRemove, File: id,
		Parent: parent.ino.ID, Name: name, Type: core.TypeDirectory,
	})
	return v.destroyLocked(t, d)
}

// Rename moves a file or directory within the volume.
func (v *Volume) Rename(t sched.Task, from, to string) error {
	v.mu.Lock(t)
	defer v.mu.Unlock(t)
	fp, fname, err := v.resolveLocked(t, from)
	if err != nil {
		return err
	}
	id, ok := fp.entries[fname]
	if !ok {
		return core.ErrNotFound
	}
	tp, tname, err := v.resolveLocked(t, to)
	if err != nil {
		return err
	}
	if _, exists := tp.entries[tname]; exists {
		return core.ErrExists
	}
	delete(fp.entries, fname)
	tp.entries[tname] = id
	if err := v.writeDir(t, fp); err != nil {
		return err
	}
	if tp != fp {
		if err := v.writeDir(t, tp); err != nil {
			return err
		}
	}
	v.logIntent(t, cache.Intent{
		Op: cache.IntentRename, File: id,
		Parent: fp.ino.ID, Name: fname,
		Parent2: tp.ino.ID, Name2: tname,
	})
	return nil
}

// Readdir lists a directory's names, sorted.
func (v *Volume) Readdir(t sched.Task, path string) ([]string, error) {
	v.mu.Lock(t)
	defer v.mu.Unlock(t)
	d, err := v.lookupLocked(t, path)
	if err != nil {
		return nil, err
	}
	if d.ino.Type != core.TypeDirectory {
		return nil, core.ErrNotDir
	}
	names := make([]string, 0, len(d.entries))
	for n := range d.entries {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// Stat returns a file's attributes by path.
func (v *Volume) Stat(t sched.Task, path string) (FileAttr, error) {
	v.mu.Lock(t)
	defer v.mu.Unlock(t)
	f, err := v.lookupLocked(t, path)
	if err != nil {
		return FileAttr{}, err
	}
	return v.attrIno(t, f.ino), nil
}

// StatHandle returns attributes through an open handle.
func (v *Volume) StatHandle(t sched.Task, h *Handle) FileAttr {
	return v.attrIno(t, h.f.ino)
}

// EnsureFile guarantees path exists (creating parents), used by the
// trace replayer for files that predate the trace. On simulated
// volumes a pre-existing file of the given size gets sticky random
// placement — the paper's educated guess.
func (v *Volume) EnsureFile(t sched.Task, path string, size int64, preexisting bool) (*Handle, error) {
	v.mu.Lock(t)
	if f, err := v.lookupLocked(t, path); err == nil {
		f.refs++
		v.mu.Unlock(t)
		f.behavior.opened(t, f)
		v.fs.st.Opens.Inc()
		return &Handle{f: f}, nil
	}
	// Create missing parent directories.
	parts, err := splitPath(path)
	if err != nil || len(parts) == 0 {
		v.mu.Unlock(t)
		return nil, core.ErrInval
	}
	prefix := ""
	for _, comp := range parts[:len(parts)-1] {
		prefix += "/" + comp
		if _, err := v.lookupLocked(t, prefix); err == core.ErrNotFound {
			if _, err := v.createLocked(t, prefix, core.TypeDirectory); err != nil {
				v.mu.Unlock(t)
				return nil, err
			}
			// createLocked leaves a reference for the returned
			// handle; directories made in passing drop it.
			d, _ := v.lookupLocked(t, prefix)
			d.refs--
		}
	}
	h, err := v.createLocked(t, path, core.TypeRegular)
	if err != nil {
		v.mu.Unlock(t)
		return nil, err
	}
	if preexisting && v.sim && size > 0 {
		if err := v.lay.PlaceExisting(t, h.f.ino, size); err == nil {
			h.f.ino.Size = size
		}
	}
	v.mu.Unlock(t)
	h.f.behavior.opened(t, h.f)
	v.fs.st.Opens.Inc()
	return h, nil
}
