package fsys

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/sched"
)

// File is an instantiated file: the object that controls a file
// loaded into the file-system. It holds the memory copy of the
// inode, a per-file lock, and the derived behavior for its type.
type File struct {
	vol *Volume
	ino *layout.Inode
	mu  sched.Mutex

	refs     int  // open handles
	unlinked bool // removed while open; freed at last close

	// Directory and symlink in-memory forms (authoritative while
	// loaded; serialized through the cache for persistence).
	entries map[string]core.FileID // directories
	dirSize int64                  // entries' serialized size (dirBytesSize)
	target  string                 // symlinks

	// Sequential-read detector and readahead bookkeeping, all under
	// mu. raDone is created lazily on the first readahead so files
	// never touched by readahead (and every file when readahead is
	// off) cost nothing.
	raNext     int64        // offset the next sequential read would start at
	raStreak   int          // consecutive sequential reads observed
	raIssued   core.BlockNo // blocks below this have been requested
	raInflight int          // outstanding readahead batches
	raDone     sched.Cond   // signaled when raInflight drops to zero

	// vec is the fill vector of readData's misses (under mu), made on
	// the first read of a volume that moves bytes — so simulated files
	// stay as small as ever.
	vec *fillVec

	behavior behavior
}

// behavior is the hook set a derived file type overrides; the base
// file implements defaults. This is the Go form of the paper's
// derived file classes (ordinary files, directories, symbolic
// links, multi-media files).
type behavior interface {
	// opened runs after the file gains its first/next reference;
	// active files spawn their thread of control here.
	opened(t sched.Task, f *File)
	// closed runs after a reference drops.
	closed(t sched.Task, f *File)
	// dropBehind reports whether the file's blocks should leave the
	// cache as soon as they are unpinned (multimedia files protect
	// the cache from sequential floods this way).
	dropBehind() bool
}

// baseBehavior implements the base-file defaults.
type baseBehavior struct{}

func (baseBehavior) opened(sched.Task, *File) {}
func (baseBehavior) closed(sched.Task, *File) {}
func (baseBehavior) dropBehind() bool         { return false }

// mmBehavior is the multimedia derived type: an active file whose
// thread of control pre-loads the cache at the stream rate and whose
// blocks drop behind instead of flooding the cache.
type mmBehavior struct {
	// RateBytesPerSec is the stream consumption rate the prefetch
	// thread sustains.
	RateBytesPerSec int64
	stop            chan struct{}
}

func (m *mmBehavior) dropBehind() bool { return true }

func (m *mmBehavior) opened(t sched.Task, f *File) {
	if m.stop != nil {
		return // already streaming
	}
	m.stop = make(chan struct{})
	stop := m.stop
	rate := m.RateBytesPerSec
	if rate <= 0 {
		rate = 1 << 20
	}
	period := time.Duration(int64(core.BlockSize) * int64(time.Second) / rate)
	k := f.vol.fs.k
	k.Go(fmt.Sprintf("mm-prefetch-f%d", f.ino.ID), func(pt sched.Task) {
		nblocks := core.BlockNo(layout.BlocksForSize(f.ino.Size))
		for blk := core.BlockNo(0); blk < nblocks; blk++ {
			select {
			case <-stop:
				return
			default:
			}
			f.vol.prefetchBlock(pt, f, blk)
			pt.Sleep(period)
		}
	})
}

func (m *mmBehavior) closed(t sched.Task, f *File) {
	if f.refs == 0 && m.stop != nil {
		close(m.stop)
		m.stop = nil
	}
}

// instantiate builds the File object for an inode, choosing the
// derived component by file type, as the front-end does when a file
// is first accessed.
func (v *Volume) instantiate(ino *layout.Inode) *File {
	f := &File{
		vol: v,
		ino: ino,
		mu:  v.fs.k.NewMutex(fmt.Sprintf("vol%d.f%d", v.ID, ino.ID)),
	}
	switch ino.Type {
	case core.TypeMultimedia:
		f.behavior = &mmBehavior{RateBytesPerSec: 1 << 21}
	default:
		f.behavior = baseBehavior{}
	}
	if ino.Type == core.TypeDirectory {
		f.entries, f.dirSize = make(map[string]core.FileID), dirBytesSize(nil)
	}
	return f
}

// get returns the loaded File for id, loading and instantiating it
// on first access. Caller holds v.mu.
func (v *Volume) getLocked(t sched.Task, id core.FileID) (*File, error) {
	if f := v.files[id]; f != nil {
		return f, nil
	}
	ino, err := v.arr.GetInode(t, id)
	if err != nil {
		return nil, err
	}
	f := v.instantiate(ino)
	if ino.Type == core.TypeDirectory {
		if err := v.loadDirectory(t, f); err != nil {
			return nil, err
		}
	}
	if ino.Type == core.TypeSymlink {
		if err := v.loadSymlink(t, f); err != nil {
			return nil, err
		}
	}
	v.files[id] = f
	return f, nil
}

// VolID returns the volume the file lives on.
func (f *File) VolID() core.VolumeID { return f.vol.ID }

// Handle is an open file reference from the global file table.
type Handle struct {
	f   *File
	pos int64
}

// File returns the underlying instantiated file.
func (h *Handle) File() *File { return h.f }

// ID returns the file's inode number.
func (h *Handle) ID() core.FileID { return h.f.ino.ID }

// FileAttr is the stat result.
type FileAttr struct {
	ID    core.FileID
	Type  core.FileType
	Size  int64
	Nlink uint32
	Mode  uint32
	MTime int64
	CTime int64
	// Gen is the inode generation (layout Version): it changes when
	// an inode number is reused, so stateless file handles embedding
	// it go stale instead of aliasing the new file.
	Gen uint64
}

// attrIno snapshots a live inode's attributes under the layout's
// inode publication lock — mutateIno's counterpart for readers. The
// cache flusher and the by-id mutators update these scalar fields
// under that lock, not under any lock a stat path holds, so an
// unlocked read would race them on the real kernel.
func (v *Volume) attrIno(t sched.Task, ino *layout.Inode) FileAttr {
	if v.fs.k.Virtual() {
		return attrOf(ino)
	}
	p := attrProbes.Get().(*attrProbe)
	p.ino = ino
	v.arr.WithInode(t, ino, p.read)
	a := p.attr
	p.ino = nil
	attrProbes.Put(p)
	return a
}

// attrProbe is attrIno's body under the publication lock. Its read
// closure is bound once, when attrProbes makes the probe: a closure
// capturing the caller's variables escapes into the layout's WithInode
// and would cost an allocation per stat.
type attrProbe struct {
	ino  *layout.Inode
	attr FileAttr
	read func()
}

var attrProbes = sync.Pool{New: func() any {
	p := &attrProbe{}
	p.read = func() { p.attr = attrOf(p.ino) }
	return p
}}

func attrOf(ino *layout.Inode) FileAttr {
	return FileAttr{
		ID:    ino.ID,
		Type:  ino.Type,
		Size:  ino.Size,
		Nlink: ino.Nlink,
		Mode:  ino.Mode,
		MTime: ino.MTime,
		CTime: ino.CTime,
		Gen:   ino.Version,
	}
}
