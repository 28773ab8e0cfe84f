package cache

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/sched"
)

// The metadata intent log closes the paper's last acknowledged-loss
// hole: data blocks of a freshly created file survive a power cut in
// NVRAM, but the namespace operation that names the file rides the
// layout checkpoint and can be lost with it — recovery then has
// survivors pointing at an inode that never became durable and must
// drop them. The log records each acknowledged namespace operation
// as a compact intent in the same battery-backed domain the dirty
// blocks live in: it survives Cache.Crash exactly when the survivors
// do (and is lost with them under volatile policies, where it only
// meters the loss). Intents retire once the covering layout
// checkpoint / log barrier is durable; replay re-executes the
// unretired tail against the recovered layout before survivors are
// written back.

// IntentOp is the namespace operation class an intent records.
type IntentOp uint8

const (
	// IntentCreate covers regular-file and directory creation.
	IntentCreate IntentOp = iota + 1
	// IntentSymlink is a symlink creation; Name2 carries the target.
	IntentSymlink
	// IntentRemove unlinks a file or removes an empty directory.
	IntentRemove
	// IntentRename moves Parent/Name to Parent2/Name2.
	IntentRename
	// IntentTruncate records a size change (truncate or setattr);
	// Size is the resulting length.
	IntentTruncate
)

// String names the op for logs.
func (op IntentOp) String() string {
	switch op {
	case IntentCreate:
		return "create"
	case IntentSymlink:
		return "symlink"
	case IntentRemove:
		return "remove"
	case IntentRename:
		return "rename"
	case IntentTruncate:
		return "truncate"
	}
	return fmt.Sprintf("op#%d", int(op))
}

// Intent is one recorded namespace operation. The fields are the
// minimum replay needs: the subject inode, the containing directory
// and leaf name (two of each for rename), the type for re-creation
// and the size for truncation.
type Intent struct {
	// Seq orders intents across the whole cache; assigned by Record.
	Seq uint64
	// At is when the operation was acknowledged.
	At sched.Time
	// Op is the operation class.
	Op IntentOp
	// Vol is the volume the operation applied to.
	Vol core.VolumeID
	// File is the subject inode.
	File core.FileID
	// Parent is the containing directory (the source directory for
	// rename).
	Parent core.FileID
	// Parent2 is the destination directory of a rename.
	Parent2 core.FileID
	// Name is the leaf name (the source name for rename).
	Name string
	// Name2 is the rename destination name, or the symlink target.
	Name2 string
	// Type is the created file's type.
	Type core.FileType
	// Size is the resulting length of a truncate.
	Size int64
	// Gen is the subject inode's generation at the operation (layout
	// Version). Replay uses it to tell whether a durable inode under
	// File is the acknowledged incarnation — safe to adopt — or a
	// different life of a recycled slot.
	Gen uint64
}

// IntentLog is the bounded ring of unretired intents. It is its own
// lock domain (a plain mutex, not a kernel one): recording happens
// under the volume namespace lock on whatever task performed the
// operation, and retirement from the sync path.
type IntentLog struct {
	mu      sync.Mutex
	slots   int
	seq     uint64
	total   uint64
	ring    []Intent                 // unretired, ascending Seq
	retired map[core.VolumeID]uint64 // per-volume durable watermark
}

// NewIntentLog builds a log with the given ring capacity.
func NewIntentLog(slots int) *IntentLog {
	if slots <= 0 {
		slots = 256
	}
	return &IntentLog{slots: slots, retired: make(map[core.VolumeID]uint64)}
}

// Record appends an intent (assigning its Seq) and reports whether
// the ring is under pressure — near its bound — in which case the
// caller should force a sync so the covering checkpoint retires the
// backlog. The ring never drops an unretired intent: pressure is the
// signal, the sync is the relief valve.
func (l *IntentLog) Record(now sched.Time, it Intent) (seq uint64, pressure bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	l.total++
	it.Seq = l.seq
	it.At = now
	l.ring = append(l.ring, it)
	return it.Seq, len(l.ring) >= l.slots*3/4
}

// Cap returns the ring capacity (the pressure bound's denominator).
func (l *IntentLog) Cap() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.slots
}

// Total returns the number of intents ever recorded (retired or not).
func (l *IntentLog) Total() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Seq returns the last assigned sequence number.
func (l *IntentLog) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// RetireVol marks every intent of vol with Seq <= seq as covered by
// a durable checkpoint and drops it from the ring.
func (l *IntentLog) RetireVol(vol core.VolumeID, seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq <= l.retired[vol] {
		return
	}
	l.retired[vol] = seq
	kept := l.ring[:0]
	for _, it := range l.ring {
		if it.Seq > l.retired[it.Vol] {
			kept = append(kept, it)
		}
	}
	l.ring = kept
}

// Unretired returns a copy of the unretired intents in Seq order.
func (l *IntentLog) Unretired() []Intent {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := append([]Intent(nil), l.ring...)
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Len is the number of unretired intents.
func (l *IntentLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ring)
}
