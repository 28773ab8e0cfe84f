package fsys

import (
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
	h := new(Handle)
	v.openLocked(t, f, h)
	return h, nil
}

// openLocked is the one open routine: it takes a reference on f,
// points h at it and releases v.mu, which the caller holds.
func (v *Volume) openLocked(t sched.Task, f *File, h *Handle) {
	f.refs++
	v.mu.Unlock(t)
	f.behavior.opened(t, f)
	v.fs.st.Opens.Inc()
	*h = Handle{f: f}
}

// Create makes a new file of the given type at path and opens it.
// Parent directories must exist.
func (v *Volume) Create(t sched.Task, path string, typ core.FileType) (*Handle, error) {
	v.mu.Lock(t)
	dir, name, err := v.resolveLocked(t, path)
	var f *File
	if err == nil {
		f, err = v.create(t, dir, name, typ, nil)
	}
	if err != nil {
		v.mu.Unlock(t)
		return nil, err
	}
	f.refs++
	v.mu.Unlock(t)
	f.behavior.opened(t, f)
	v.fs.st.Creates.Inc()
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
	got, err := v.ReadAt(t, h, h.pos, buf, n)
	h.pos += got
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

// Write stores n bytes at the handle position, advancing it. A
// directory's content is its entry list, which only the namespace
// operations write: Write, WriteAt and a size change of a directory
// are core.ErrIsDir.
func (v *Volume) Write(t sched.Task, h *Handle, data []byte, n int64) error {
	err := v.WriteAt(t, h, h.pos, data, n)
	if err == nil {
		h.pos += n
	}
	return err
}

// WriteAt stores n bytes at offset off.
func (v *Volume) WriteAt(t sched.Task, h *Handle, off int64, data []byte, n int64) error {
	h.f.mu.Lock(t)
	defer h.f.mu.Unlock(t)
	if h.f.ino.Type == core.TypeDirectory {
		return core.ErrIsDir
	}
	if err := v.writeData(t, h.f, off, data, n); err != nil {
		return err
	}
	v.fs.st.Writes.Inc()
	return v.arr.UpdateInode(t, h.f.ino)
}

// Truncate sets the file size, discarding cached blocks beyond it.
func (v *Volume) Truncate(t sched.Task, h *Handle, size int64) error {
	h.f.mu.Lock(t)
	defer h.f.mu.Unlock(t)
	return v.setSize(t, h.f, size)
}

// Remove unlinks the file at path (not a directory).
func (v *Volume) Remove(t sched.Task, path string) error { return v.removePath(t, path, rmFile) }

// Rmdir removes an empty directory.
func (v *Volume) Rmdir(t sched.Task, path string) error { return v.removePath(t, path, rmDir) }

func (v *Volume) removePath(t sched.Task, path string, kind rmKind) error {
	v.mu.Lock(t)
	defer v.mu.Unlock(t)
	dir, name, err := v.resolveLocked(t, path)
	if err == nil {
		err = v.remove(t, dir, name, kind)
	}
	if err == nil {
		v.fs.st.Removes.Inc()
	}
	return err
}

// Rename moves a file or directory within the volume.
func (v *Volume) Rename(t sched.Task, from, to string) error {
	v.mu.Lock(t)
	defer v.mu.Unlock(t)
	fdir, fname, err := v.resolveLocked(t, from)
	if err != nil {
		return err
	}
	tdir, tname, err := v.resolveLocked(t, to)
	if err != nil {
		return err
	}
	return v.rename(t, fdir, fname, tdir, tname)
}

// Stat returns a file's attributes by path.
func (v *Volume) Stat(t sched.Task, path string) (FileAttr, error) {
	v.mu.Lock(t)
	defer v.mu.Unlock(t)
	f, err := v.lookupLocked(t, path)
	if err != nil {
		return FileAttr{}, err
	}
	return attrIno(f.ino), nil
}

// StatHandle returns attributes through an open handle.
func (v *Volume) StatHandle(t sched.Task, h *Handle) FileAttr {
	return attrIno(h.f.ino)
}

// EnsureFile guarantees path exists (creating parents), used by the
// trace replayer for files that predate the trace. On simulated
// volumes a pre-existing file of the given size gets sticky random
// placement — the paper's educated guess.
func (v *Volume) EnsureFile(t sched.Task, path string, size int64, preexisting bool) (*Handle, error) {
	parts, err := splitPath(path)
	if err != nil {
		return nil, core.ErrInval
	}
	v.mu.Lock(t)
	f := v.root
	for i, comp := range parts {
		if f.ino.Type != core.TypeDirectory {
			v.mu.Unlock(t)
			return nil, core.ErrNotDir
		}
		if id, ok := f.entries[comp]; ok {
			if f, err = v.getLocked(t, id); err != nil {
				v.mu.Unlock(t)
				return nil, err
			}
			continue
		}
		typ := core.TypeDirectory
		if i == len(parts)-1 {
			typ = core.TypeRegular
		}
		if f, err = v.create(t, f, comp, typ, nil); err != nil {
			v.mu.Unlock(t)
			return nil, err
		}
		if typ == core.TypeRegular && preexisting && v.sim && size > 0 {
			if err := v.arr.PlaceExisting(t, f.ino, size); err == nil {
				f.ino.SetSize(size)
			}
		}
	}
	h := new(Handle)
	v.openLocked(t, f, h)
	return h, nil
}
