package fsys

import (
	"encoding/binary"
	"sort"
	"strings"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/sched"
)

// Directory serialization: u32 count, then per entry u64 fileID,
// u16 nameLen, name bytes. Directories keep their authoritative
// entry map in memory while loaded; this form is what goes through
// the cache to disk (or is sized, in the simulator).

// dirBytesSize computes the serialized size without building bytes.
func dirBytesSize(entries map[string]core.FileID) int64 {
	n := int64(4)
	for name := range entries {
		n += 8 + 2 + int64(len(name))
	}
	return n
}

// encodeDir serializes entries deterministically (sorted names).
func encodeDir(entries map[string]core.FileID) []byte {
	names := make([]string, 0, len(entries))
	for n := range entries {
		names = append(names, n)
	}
	sort.Strings(names)
	buf := make([]byte, dirBytesSize(entries))
	le := binary.LittleEndian
	le.PutUint32(buf[0:], uint32(len(names)))
	off := 4
	for _, n := range names {
		le.PutUint64(buf[off:], uint64(entries[n]))
		le.PutUint16(buf[off+8:], uint16(len(n)))
		copy(buf[off+10:], n)
		off += 10 + len(n)
	}
	return buf
}

// decodeDir parses a directory image. complete is false when the
// image ends inside an entry; the entries before it are returned.
func decodeDir(buf []byte) (ents map[string]core.FileID, complete bool) {
	out := make(map[string]core.FileID)
	if len(buf) < 4 {
		return out, true
	}
	le := binary.LittleEndian
	n := int(le.Uint32(buf[0:]))
	off := 4
	for i := 0; i < n; i++ {
		if off+10 > len(buf) {
			return out, false
		}
		id := core.FileID(le.Uint64(buf[off:]))
		nl := int(le.Uint16(buf[off+8:]))
		if off+10+nl > len(buf) {
			return out, false
		}
		out[string(buf[off+10:off+10+nl])] = id
		off += 10 + nl
	}
	return out, true
}

// writeContent replaces the whole content of a directory or symlink
// (data is nil on a simulated volume) through the cache. Caller holds
// v.mu.
func (v *Volume) writeContent(t sched.Task, f *File, data []byte, size int64) error {
	if err := v.writeData(t, f, 0, data, size); err != nil {
		return err
	}
	if size < f.ino.Size {
		// The content shrank: drop the tail.
		if err := v.truncateLocked(t, f, size); err != nil {
			return err
		}
	}
	v.mutateIno(t, f.ino, func() { f.ino.Size = size })
	return v.lay.UpdateInode(t, f.ino)
}

// readContent reads a directory's or symlink's whole content back; nil
// on a simulated volume, which keeps every loaded one in memory for
// the lifetime of the run.
func (v *Volume) readContent(t sched.Task, f *File) ([]byte, error) {
	if v.sim || f.ino.Size == 0 {
		return nil, nil
	}
	buf := make([]byte, f.ino.Size)
	_, err := v.readData(t, f, 0, buf, f.ino.Size)
	return buf, err
}

// writeDir persists a directory's current entries.
func (v *Volume) writeDir(t sched.Task, d *File) error {
	var data []byte
	if !v.sim {
		data = encodeDir(d.entries)
	}
	return v.writeContent(t, d, data, dirBytesSize(d.entries))
}

// loadDirectory reads a directory's entries from storage.
func (v *Volume) loadDirectory(t sched.Task, d *File) error {
	buf, err := v.readContent(t, d)
	if err != nil {
		return err
	}
	ents, complete := decodeDir(buf)
	if !complete {
		// A torn log tail can leave a newer directory image on disk
		// than the durable inode size covers (the data block hardened,
		// the inode record with the grown size did not). The image is
		// self-describing, so re-read whole blocks and keep the entries
		// that parse — the crash discipline's loss, not a mount error.
		if ents, err = v.loadDirTorn(t, d); err != nil {
			return err
		}
	}
	d.entries = ents
	return nil
}

// loadDirTorn re-reads a directory whose image outgrew its durable
// size, block-aligned and straight from the layout, and decodes
// whatever complete entries survive.
func (v *Volume) loadDirTorn(t sched.Task, d *File) (map[string]core.FileID, error) {
	nb := (d.ino.Size + core.BlockSize - 1) / core.BlockSize
	buf := make([]byte, nb*core.BlockSize)
	bufs := make([][]byte, nb)
	for b := range bufs {
		bufs[b] = buf[int64(b)*core.BlockSize : int64(b+1)*core.BlockSize]
	}
	for b := int64(0); b < nb; {
		got, err := v.lay.ReadRunVec(t, d.ino, core.BlockNo(b), int(nb-b), bufs[b:])
		if err != nil {
			return nil, err
		}
		b += int64(got)
	}
	ents, _ := decodeDir(buf)
	return ents, nil
}

// writeSymlink sets a symlink's target, persists it as the file's
// content and logs it: the create intent recorded the link's birth,
// this one carries the target so replay can rebuild the body.
func (v *Volume) writeSymlink(t sched.Task, f *File, target string) error {
	f.target = target
	var data []byte
	if !v.sim {
		data = []byte(target)
	}
	if err := v.writeContent(t, f, data, int64(len(target))); err != nil {
		return err
	}
	v.logIntent(t, cache.Intent{Op: cache.IntentSymlink, File: f.ino.ID, Name2: target})
	return nil
}

// loadSymlink reads a symlink target back.
func (v *Volume) loadSymlink(t sched.Task, f *File) error {
	buf, err := v.readContent(t, f)
	f.target = string(buf)
	return err
}

// resolveLocked walks path and returns the parent directory and leaf
// name; the leaf itself may or may not exist. Caller holds v.mu.
func (v *Volume) resolveLocked(t sched.Task, path string) (parent *File, name string, err error) {
	parts, err := splitPath(path)
	if err != nil {
		return nil, "", err
	}
	if len(parts) == 0 {
		return nil, "", core.ErrInval // the root has no parent
	}
	dir, err := v.walkLocked(t, parts[:len(parts)-1])
	if err == nil && dir.ino.Type != core.TypeDirectory {
		err = core.ErrNotDir
	}
	if err != nil {
		return nil, "", err
	}
	return dir, parts[len(parts)-1], nil
}

// lookupLocked returns the file at path. Caller holds v.mu.
func (v *Volume) lookupLocked(t sched.Task, path string) (*File, error) {
	parts, err := splitPath(path)
	if err != nil {
		return nil, err
	}
	return v.walkLocked(t, parts)
}

// walkLocked follows path components down from the root.
func (v *Volume) walkLocked(t sched.Task, parts []string) (*File, error) {
	f := v.root
	for _, comp := range parts {
		if f.ino.Type != core.TypeDirectory {
			return nil, core.ErrNotDir
		}
		id, ok := f.entries[comp]
		if !ok {
			return nil, core.ErrNotFound
		}
		var err error
		if f, err = v.getLocked(t, id); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// The namespace cores. Each mutation — create (mkdir too), symlink,
// remove, rename and set-size — has one body here, shared by the path
// API (the trace replayer), the by-ID API (the NFS server) and NVRAM
// intent replay. Only these write a directory's entries (through
// attach and detach), fix link counts, call writeDir and log intents.
// Caller holds v.mu (setSize: f.mu, or v.mu during replay).

// checkName refuses a name no directory entry may carry.
func checkName(name string) error {
	switch {
	case name == "" || name == "." || name == ".." || strings.IndexByte(name, '/') >= 0:
		return core.ErrInval
	case len(name) > core.MaxNameLen:
		return core.ErrNameTooLon
	}
	return nil
}

// attach enters file id, loaded as f (nil: a dangling entry), in dir
// as name. A directory's ".." is one more link to its parent.
func (v *Volume) attach(t sched.Task, dir *File, name string, id core.FileID, f *File) {
	dir.entries[name] = id
	if f != nil && f.ino.Type == core.TypeDirectory {
		v.mutateIno(t, dir.ino, func() { dir.ino.Nlink++ })
	}
}

// detach removes name, which names f (nil: a dangling entry), from dir.
func (v *Volume) detach(t sched.Task, dir *File, name string, f *File) {
	delete(dir.entries, name)
	if f != nil && f.ino.Type == core.TypeDirectory {
		v.mutateIno(t, dir.ino, func() { dir.ino.Nlink-- })
	}
}

// relink sets directory d's link count to what its entries say: 2
// plus one per subdirectory. Only intent replay needs it: a
// directory's inode can reach the disk ahead of the entry block it
// describes, so its durable count may already include the operation
// being replayed, or one whose entry never became durable.
func (v *Volume) relink(t sched.Task, d *File) error {
	n := uint32(2)
	for _, id := range d.entries {
		if c, err := v.getLocked(t, id); err == nil && c.ino.Type == core.TypeDirectory {
			n++
		}
	}
	if n == d.ino.Nlink {
		return nil
	}
	v.mutateIno(t, d.ino, func() { d.ino.Nlink = n })
	return v.lay.UpdateInode(t, d.ino)
}

// create links a new file of type typ into dir as name and returns it
// (holding no reference). A non-nil f is an already-durable inode that
// intent replay adopts instead of allocating one. A name whose inode is
// gone (the directory block outlived it across a crash) is free.
func (v *Volume) create(t sched.Task, dir *File, name string, typ core.FileType, f *File) (*File, error) {
	if err := checkName(name); err != nil {
		return nil, err
	}
	if id, ok := dir.entries[name]; ok {
		if _, err := v.getLocked(t, id); err != core.ErrNotFound {
			return nil, core.ErrExists // unless provably dangling
		}
	}
	if f == nil {
		ino, err := v.lay.AllocInode(t, typ)
		if err != nil {
			return nil, err
		}
		f = v.instantiate(ino)
		v.files[ino.ID] = f
	}
	v.attach(t, dir, name, f.ino.ID, f)
	if typ == core.TypeDirectory {
		// writeDir persists the new link count as well; this earlier
		// write is one the simulator's FFS timings include.
		if err := v.lay.UpdateInode(t, dir.ino); err != nil {
			return nil, err
		}
	}
	if err := v.writeDir(t, dir); err != nil {
		return nil, err
	}
	v.logIntent(t, cache.Intent{
		Op: cache.IntentCreate, File: f.ino.ID, Gen: f.ino.Version,
		Parent: dir.ino.ID, Name: name, Type: typ,
	})
	return f, nil
}

// symlink creates a symlink in dir holding target.
func (v *Volume) symlink(t sched.Task, dir *File, name, target string) (*File, error) {
	f, err := v.create(t, dir, name, core.TypeSymlink, nil)
	if err != nil {
		return nil, err
	}
	return f, v.writeSymlink(t, f, target)
}

// rmKind is what remove insists the name holds.
type rmKind int

const (
	rmFile rmKind = iota // anything but a directory (Remove)
	rmDir                // an empty directory (Rmdir)
	rmAny                // whatever it holds now: intent replay, whose remove was checked when it was acknowledged
)

// remove unlinks name from dir. Open files live on until the last
// close; the cached dirty blocks of a closed file are simply
// discarded — the write-saving effect of deletes. A dangling name
// just goes.
func (v *Volume) remove(t sched.Task, dir *File, name string, kind rmKind) error {
	id, ok := dir.entries[name]
	if !ok {
		return core.ErrNotFound
	}
	f, err := v.getLocked(t, id)
	switch {
	case err == core.ErrNotFound:
		f = nil
	case err != nil:
		return err
	case kind == rmDir && f.ino.Type != core.TypeDirectory:
		return core.ErrNotDir
	case kind == rmFile && f.ino.Type == core.TypeDirectory:
		return core.ErrIsDir
	case kind == rmDir && len(f.entries) != 0:
		return core.ErrNotEmpty
	}
	v.detach(t, dir, name, f)
	if err := v.writeDir(t, dir); err != nil {
		return err
	}
	it := cache.Intent{Op: cache.IntentRemove, File: id, Parent: dir.ino.ID, Name: name}
	if f == nil {
		v.logIntent(t, it)
		return nil
	}
	it.Type = f.ino.Type
	v.logIntent(t, it)
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

// rename moves fromName in from to toName in to. A directory may not
// move into its own subtree, which would cut it off from the root.
func (v *Volume) rename(t sched.Task, from *File, fromName string, to *File, toName string) error {
	if err := checkName(toName); err != nil {
		return err
	}
	id, ok := from.entries[fromName]
	if !ok {
		return core.ErrNotFound
	}
	if _, exists := to.entries[toName]; exists {
		return core.ErrExists
	}
	f, err := v.getLocked(t, id)
	if err == core.ErrNotFound {
		f = nil // a dangling name moves like any other
	} else if err != nil {
		return err
	}
	if from != to && f != nil && f.ino.Type == core.TypeDirectory {
		switch in, err := v.holds(t, f, to); {
		case err != nil:
			return err
		case in:
			return core.ErrInval
		}
	}
	v.detach(t, from, fromName, f)
	v.attach(t, to, toName, id, f)
	if err := v.writeDir(t, from); err != nil {
		return err
	}
	if to != from {
		if err := v.writeDir(t, to); err != nil {
			return err
		}
	}
	v.logIntent(t, cache.Intent{
		Op: cache.IntentRename, File: id,
		Parent: from.ino.ID, Name: fromName,
		Parent2: to.ino.ID, Name2: toName,
	})
	return nil
}

// holds reports whether directory dir lies in the subtree rooted at
// directory d, d included. It walks the subtree; under the simulator
// every directory is in memory, so the walk costs no simulated time.
func (v *Volume) holds(t sched.Task, d, dir *File) (bool, error) {
	if d == dir {
		return true, nil
	}
	for _, id := range d.entries {
		c, err := v.getLocked(t, id)
		if err == core.ErrNotFound {
			continue // dangling
		}
		if err != nil {
			return false, err
		}
		if c.ino.Type != core.TypeDirectory {
			continue
		}
		if in, err := v.holds(t, c, dir); in || err != nil {
			return in, err
		}
	}
	return false, nil
}

// setSize truncates or extends f, discarding cached blocks past the
// new end. A directory's size is its entry list's: changing it is
// core.ErrIsDir.
func (v *Volume) setSize(t sched.Task, f *File, size int64) error {
	if f.ino.Type == core.TypeDirectory && size != f.ino.Size {
		return core.ErrIsDir
	}
	if err := v.truncateLocked(t, f, size); err != nil {
		return err
	}
	v.logIntent(t, cache.Intent{Op: cache.IntentTruncate, File: f.ino.ID, Size: size})
	return nil
}
