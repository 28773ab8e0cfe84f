package fsys

import (
	"sort"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/sched"
)

// The by-ID operations back the stateless NFS-like front-end: file
// handles name (volume, inode) pairs, so the server resolves against
// inode numbers rather than paths, the way the paper's NFS component
// dispatches incoming requests onto the abstract client interface.

// OpenByID opens a file by inode number.
func (v *Volume) OpenByID(t sched.Task, id core.FileID) (*Handle, error) {
	v.mu.Lock(t)
	f, err := v.getLocked(t, id)
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

// StatByID returns attributes by inode number.
func (v *Volume) StatByID(t sched.Task, id core.FileID) (FileAttr, error) {
	v.mu.Lock(t)
	defer v.mu.Unlock(t)
	f, err := v.getLocked(t, id)
	if err != nil {
		return FileAttr{}, err
	}
	return v.attrIno(t, f.ino), nil
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
	return v.attrIno(t, f.ino), nil
}

// CreateIn makes a file inside directory dir and returns its
// attributes.
func (v *Volume) CreateIn(t sched.Task, dir core.FileID, name string, typ core.FileType) (FileAttr, error) {
	v.mu.Lock(t)
	defer v.mu.Unlock(t)
	d, err := v.dirLocked(t, dir)
	if err != nil {
		return FileAttr{}, err
	}
	if len(name) > core.MaxNameLen {
		return FileAttr{}, core.ErrNameTooLon
	}
	if _, exists := d.entries[name]; exists {
		return FileAttr{}, core.ErrExists
	}
	ino, err := v.lay.AllocInode(t, typ)
	if err != nil {
		return FileAttr{}, err
	}
	f := v.instantiate(ino)
	v.files[ino.ID] = f
	d.entries[name] = ino.ID
	if typ == core.TypeDirectory {
		v.mutateIno(t, d.ino, func() { d.ino.Nlink++ })
		v.mutateIno(t, ino, func() { ino.Nlink = 2 })
		if err := v.lay.UpdateInode(t, d.ino); err != nil {
			return FileAttr{}, err
		}
	}
	if err := v.writeDir(t, d); err != nil {
		return FileAttr{}, err
	}
	v.fs.st.Creates.Inc()
	v.logIntent(t, cache.Intent{
		Op: cache.IntentCreate, File: ino.ID, Gen: ino.Version,
		Parent: d.ino.ID, Name: name, Type: typ,
	})
	return v.attrIno(t, ino), nil
}

// RemoveIn unlinks name from directory dir.
func (v *Volume) RemoveIn(t sched.Task, dir core.FileID, name string) error {
	v.mu.Lock(t)
	defer v.mu.Unlock(t)
	d, err := v.dirLocked(t, dir)
	if err != nil {
		return err
	}
	id, ok := d.entries[name]
	if !ok {
		return core.ErrNotFound
	}
	f, err := v.getLocked(t, id)
	if err != nil {
		return err
	}
	if f.ino.Type == core.TypeDirectory {
		if len(f.entries) != 0 {
			return core.ErrNotEmpty
		}
		v.mutateIno(t, d.ino, func() { d.ino.Nlink-- })
	}
	delete(d.entries, name)
	if err := v.writeDir(t, d); err != nil {
		return err
	}
	v.fs.st.Removes.Inc()
	v.logIntent(t, cache.Intent{
		Op: cache.IntentRemove, File: id,
		Parent: d.ino.ID, Name: name, Type: f.ino.Type,
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
	id, ok := fd.entries[fromName]
	if !ok {
		return core.ErrNotFound
	}
	if _, exists := td.entries[toName]; exists {
		return core.ErrExists
	}
	delete(fd.entries, fromName)
	td.entries[toName] = id
	if err := v.writeDir(t, fd); err != nil {
		return err
	}
	if td != fd {
		if err := v.writeDir(t, td); err != nil {
			return err
		}
	}
	v.logIntent(t, cache.Intent{
		Op: cache.IntentRename, File: id,
		Parent: fd.ino.ID, Name: fromName,
		Parent2: td.ino.ID, Name2: toName,
	})
	return nil
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
	d, err := v.dirLocked(t, dir)
	if err != nil {
		return nil, err
	}
	out := make([]DirEntry, 0, len(d.entries))
	for name, id := range d.entries {
		out = append(out, DirEntry{Name: name, ID: id})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// SymlinkIn creates a symlink inside dir.
func (v *Volume) SymlinkIn(t sched.Task, dir core.FileID, name, target string) (FileAttr, error) {
	attr, err := v.CreateIn(t, dir, name, core.TypeSymlink)
	if err != nil {
		return attr, err
	}
	v.mu.Lock(t)
	defer v.mu.Unlock(t)
	f, err := v.getLocked(t, attr.ID)
	if err != nil {
		return attr, err
	}
	f.target = target
	if err := v.writeSymlink(t, f); err != nil {
		return attr, err
	}
	v.logIntent(t, cache.Intent{
		Op: cache.IntentSymlink, File: f.ino.ID, Name2: target,
	})
	return v.attrIno(t, f.ino), nil
}

// ReadlinkByID returns a symlink's target by inode number.
func (v *Volume) ReadlinkByID(t sched.Task, id core.FileID) (string, error) {
	v.mu.Lock(t)
	defer v.mu.Unlock(t)
	f, err := v.getLocked(t, id)
	if err != nil {
		return "", err
	}
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
	if f.ino.Type == core.TypeDirectory && size != f.ino.Size {
		return FileAttr{}, core.ErrIsDir
	}
	if size < f.ino.Size {
		if err := v.truncateLocked(t, f, size); err != nil {
			return FileAttr{}, err
		}
	} else {
		v.mutateIno(t, f.ino, func() { f.ino.Size = size })
		if err := v.lay.UpdateInode(t, f.ino); err != nil {
			return FileAttr{}, err
		}
	}
	v.logIntent(t, cache.Intent{
		Op: cache.IntentTruncate, File: f.ino.ID, Size: size,
	})
	return v.attrIno(t, f.ino), nil
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
