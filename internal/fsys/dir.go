package fsys

import (
	"encoding/binary"
	"sort"

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

// decodeDir parses a directory image.
func decodeDir(buf []byte) (map[string]core.FileID, error) {
	out := make(map[string]core.FileID)
	if len(buf) < 4 {
		return out, nil
	}
	le := binary.LittleEndian
	n := int(le.Uint32(buf[0:]))
	off := 4
	for i := 0; i < n; i++ {
		if off+10 > len(buf) {
			return nil, core.ErrInval
		}
		id := core.FileID(le.Uint64(buf[off:]))
		nl := int(le.Uint16(buf[off+8:]))
		if off+10+nl > len(buf) {
			return nil, core.ErrInval
		}
		out[string(buf[off+10:off+10+nl])] = id
		off += 10 + nl
	}
	return out, nil
}

// writeDir persists a directory's current entries through the cache.
// Caller holds v.mu.
func (v *Volume) writeDir(t sched.Task, d *File) error {
	var data []byte
	size := dirBytesSize(d.entries)
	if !v.sim {
		data = encodeDir(d.entries)
	}
	if err := v.writeData(t, d, 0, data, size); err != nil {
		return err
	}
	if size < d.ino.Size {
		// Directory shrank: drop the tail.
		if err := v.truncateLocked(t, d, size); err != nil {
			return err
		}
	}
	v.mutateIno(t, d.ino, func() { d.ino.Size = size })
	return v.lay.UpdateInode(t, d.ino)
}

// loadDirectory reads a directory's entries from storage (real
// volumes). Simulated volumes keep every loaded directory in memory
// for the lifetime of the run, so an unknown one is simply empty.
func (v *Volume) loadDirectory(t sched.Task, d *File) error {
	d.entries = make(map[string]core.FileID)
	if v.sim || d.ino.Size == 0 {
		return nil
	}
	buf := make([]byte, d.ino.Size)
	if _, err := v.readData(t, d, 0, buf, d.ino.Size); err != nil {
		return err
	}
	ents, err := decodeDir(buf)
	if err != nil {
		// A torn log tail can leave a newer directory image on disk
		// than the durable inode size covers (the data block hardened,
		// the inode record with the grown size did not). The image is
		// self-describing, so re-read whole blocks and keep the entries
		// that parse — the crash discipline's loss, not a mount error.
		ents, err = v.loadDirTorn(t, d)
		if err != nil {
			return err
		}
	}
	d.entries = ents
	return nil
}

// loadDirTorn re-reads a directory whose image outgrew its durable
// size, block-aligned and straight from the layout, and prefix-decodes
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
	return decodeDirPrefix(buf), nil
}

// decodeDirPrefix parses a directory image, stopping (without error)
// at the first entry the buffer cannot complete.
func decodeDirPrefix(buf []byte) map[string]core.FileID {
	out := make(map[string]core.FileID)
	if len(buf) < 4 {
		return out
	}
	le := binary.LittleEndian
	n := int(le.Uint32(buf[0:]))
	off := 4
	for i := 0; i < n; i++ {
		if off+10 > len(buf) {
			return out
		}
		id := core.FileID(le.Uint64(buf[off:]))
		nl := int(le.Uint16(buf[off+8:]))
		if off+10+nl > len(buf) {
			return out
		}
		out[string(buf[off+10:off+10+nl])] = id
		off += 10 + nl
	}
	return out
}

// writeSymlink persists a symlink target as the file's content.
func (v *Volume) writeSymlink(t sched.Task, f *File) error {
	var data []byte
	size := int64(len(f.target))
	if !v.sim {
		data = []byte(f.target)
	}
	if err := v.writeData(t, f, 0, data, size); err != nil {
		return err
	}
	v.mutateIno(t, f.ino, func() { f.ino.Size = size })
	return v.lay.UpdateInode(t, f.ino)
}

// loadSymlink reads a symlink target back (real volumes).
func (v *Volume) loadSymlink(t sched.Task, f *File) error {
	if v.sim || f.ino.Size == 0 {
		return nil
	}
	buf := make([]byte, f.ino.Size)
	if _, err := v.readData(t, f, 0, buf, f.ino.Size); err != nil {
		return err
	}
	f.target = string(buf)
	return nil
}

// resolve walks path and returns the parent directory and leaf name;
// the leaf itself may or may not exist. Caller holds v.mu.
func (v *Volume) resolveLocked(t sched.Task, path string) (parent *File, name string, err error) {
	parts, err := splitPath(path)
	if err != nil {
		return nil, "", err
	}
	if len(parts) == 0 {
		return nil, "", core.ErrInval // the root has no parent
	}
	dir := v.root
	for _, comp := range parts[:len(parts)-1] {
		id, ok := dir.entries[comp]
		if !ok {
			return nil, "", core.ErrNotFound
		}
		next, err := v.getLocked(t, id)
		if err != nil {
			return nil, "", err
		}
		if next.ino.Type != core.TypeDirectory {
			return nil, "", core.ErrNotDir
		}
		dir = next
	}
	return dir, parts[len(parts)-1], nil
}

// lookupLocked returns the file at path. Caller holds v.mu.
func (v *Volume) lookupLocked(t sched.Task, path string) (*File, error) {
	parts, err := splitPath(path)
	if err != nil {
		return nil, err
	}
	f := v.root
	for _, comp := range parts {
		if f.ino.Type != core.TypeDirectory {
			return nil, core.ErrNotDir
		}
		id, ok := f.entries[comp]
		if !ok {
			return nil, core.ErrNotFound
		}
		f, err = v.getLocked(t, id)
		if err != nil {
			return nil, err
		}
	}
	return f, nil
}
