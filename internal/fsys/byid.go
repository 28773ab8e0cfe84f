package fsys

import (
	"sort"

	"repro/internal/core"
	"repro/internal/sched"
)

// The by-ID operations back the stateless NFS-like front-end: file
// handles name (volume, inode) pairs, so the server resolves against
// inode numbers rather than paths, the way the paper's NFS component
// dispatches incoming requests onto the abstract client interface.
// Each resolves its directory by number and then runs the same
// namespace core as its path twin.

// OpenByID opens a file by inode number.
func (v *Volume) OpenByID(t sched.Task, id core.FileID) (*Handle, error) {
	h := new(Handle)
	if err := v.OpenInto(t, id, h); err != nil {
		return nil, err
	}
	return h, nil
}

// OpenInto opens a file by inode number into h, a handle the caller
// owns: a server that opens one file per call reuses one Handle
// instead of allocating a fresh one. h must not be open.
func (v *Volume) OpenInto(t sched.Task, id core.FileID, h *Handle) error {
	v.mu.Lock(t)
	f, err := v.getLocked(t, id)
	if err != nil {
		v.mu.Unlock(t)
		return err
	}
	v.openLocked(t, f, h)
	return nil
}

// StatByID returns attributes by inode number.
func (v *Volume) StatByID(t sched.Task, id core.FileID) (FileAttr, error) {
	v.mu.Lock(t)
	defer v.mu.Unlock(t)
	f, err := v.getLocked(t, id)
	if err != nil {
		return FileAttr{}, err
	}
	return attrIno(f.ino), nil
}

// LookupIn resolves one name within directory dir.
func (v *Volume) LookupIn(t sched.Task, dir core.FileID, name string) (FileAttr, error) {
	v.mu.Lock(t)
	defer v.mu.Unlock(t)
	d, err := v.dirLocked(t, dir)
	if err != nil {
		return FileAttr{}, err
	}
	id, ok := d.entries[name]
	if !ok {
		return FileAttr{}, core.ErrNotFound
	}
	f, err := v.getLocked(t, id)
	if err != nil {
		return FileAttr{}, err
	}
	return attrIno(f.ino), nil
}

// CreateIn makes a file inside directory dir and returns its
// attributes.
func (v *Volume) CreateIn(t sched.Task, dir core.FileID, name string, typ core.FileType) (FileAttr, error) {
	v.mu.Lock(t)
	defer v.mu.Unlock(t)
	d, err := v.dirLocked(t, dir)
	var f *File
	if err == nil {
		f, err = v.create(t, d, name, typ, nil)
	}
	if err != nil {
		return FileAttr{}, err
	}
	v.fs.st.Creates.Inc()
	return attrIno(f.ino), nil
}

// SymlinkIn creates a symlink inside dir.
func (v *Volume) SymlinkIn(t sched.Task, dir core.FileID, name, target string) (FileAttr, error) {
	v.mu.Lock(t)
	defer v.mu.Unlock(t)
	d, err := v.dirLocked(t, dir)
	var f *File
	if err == nil {
		f, err = v.symlink(t, d, name, target)
	}
	if err != nil {
		return FileAttr{}, err
	}
	v.fs.st.Creates.Inc()
	return attrIno(f.ino), nil
}

// RemoveIn unlinks name, which must not be a directory, from
// directory dir.
func (v *Volume) RemoveIn(t sched.Task, dir core.FileID, name string) error {
	return v.removeIn(t, dir, name, rmFile)
}

// RmdirIn removes the empty directory name from directory dir.
func (v *Volume) RmdirIn(t sched.Task, dir core.FileID, name string) error {
	return v.removeIn(t, dir, name, rmDir)
}

func (v *Volume) removeIn(t sched.Task, dir core.FileID, name string, kind rmKind) error {
	v.mu.Lock(t)
	defer v.mu.Unlock(t)
	d, err := v.dirLocked(t, dir)
	if err == nil {
		err = v.remove(t, d, name, kind)
	}
	if err == nil {
		v.fs.st.Removes.Inc()
	}
	return err
}

// RenameIn moves fromName in fromDir to toName in toDir.
func (v *Volume) RenameIn(t sched.Task, fromDir core.FileID, fromName string, toDir core.FileID, toName string) error {
	v.mu.Lock(t)
	defer v.mu.Unlock(t)
	fd, err := v.dirLocked(t, fromDir)
	if err != nil {
		return err
	}
	td, err := v.dirLocked(t, toDir)
	if err != nil {
		return err
	}
	return v.rename(t, fd, fromName, td, toName)
}

// DirEntry is one readdir result.
type DirEntry struct {
	Name string
	ID   core.FileID
}

// ReaddirByID lists directory dir.
func (v *Volume) ReaddirByID(t sched.Task, dir core.FileID) ([]DirEntry, error) {
	v.mu.Lock(t)
	defer v.mu.Unlock(t)
	d, err := v.getLocked(t, dir)
	if err != nil {
		return nil, err
	}
	return d.list()
}

// list returns a directory's entries sorted by name.
func (d *File) list() ([]DirEntry, error) {
	if d.ino.Type != core.TypeDirectory {
		return nil, core.ErrNotDir
	}
	out := make([]DirEntry, 0, len(d.entries))
	for name, id := range d.entries {
		out = append(out, DirEntry{Name: name, ID: id})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// ReadlinkByID returns a symlink's target by inode number.
func (v *Volume) ReadlinkByID(t sched.Task, id core.FileID) (string, error) {
	v.mu.Lock(t)
	defer v.mu.Unlock(t)
	f, err := v.getLocked(t, id)
	if err != nil {
		return "", err
	}
	return f.linkTarget()
}

// linkTarget returns a symlink's target; any other file is
// core.ErrInval.
func (f *File) linkTarget() (string, error) {
	if f.ino.Type != core.TypeSymlink {
		return "", core.ErrInval
	}
	return f.target, nil
}

// SetSizeByID truncates (or extends) a file by inode number,
// backing the SETATTR procedure. A directory's size is its entry
// list's: changing it is core.ErrIsDir.
func (v *Volume) SetSizeByID(t sched.Task, id core.FileID, size int64) (FileAttr, error) {
	v.mu.Lock(t)
	f, err := v.getLocked(t, id)
	v.mu.Unlock(t)
	if err != nil {
		return FileAttr{}, err
	}
	f.mu.Lock(t)
	defer f.mu.Unlock(t)
	if err := v.setSize(t, f, size); err != nil {
		return FileAttr{}, err
	}
	return attrIno(f.ino), nil
}

// dirLocked fetches a directory by id, checking its type.
func (v *Volume) dirLocked(t sched.Task, id core.FileID) (*File, error) {
	d, err := v.getLocked(t, id)
	if err != nil {
		return nil, err
	}
	if d.ino.Type != core.TypeDirectory {
		return nil, core.ErrNotDir
	}
	return d, nil
}
