// Package nfs implements PFS's client interface: an NFS-v2-like
// stateless file protocol over TCP with XDR encoding. It substitutes
// for the paper's SunRPC/UDP NFS plumbing while preserving what the
// framework cares about — stateless file handles, a thread-per-
// request server dispatching onto the abstract client interface, and
// idempotent procedures.
//
// Wire format: each message is a record-marked frame (big-endian
// uint32 length, then payload). Calls carry (xid, MsgCall, proc,
// args); replies carry (xid, MsgReply, status, results).
package nfs

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"

	"repro/internal/core"
	"repro/internal/fsys"
	"repro/internal/xdr"
)

// Procedures.
const (
	ProcNull uint32 = iota
	ProcMount
	ProcGetattr
	ProcSetattr
	ProcLookup
	ProcRead
	ProcWrite
	ProcCreate
	ProcRemove
	ProcRename
	ProcMkdir
	ProcRmdir
	ProcReaddir
	ProcSymlink
	ProcReadlink
	ProcStatFS
	// NumProcs bounds the procedure space (per-proc stat arrays).
	NumProcs = int(ProcStatFS) + 1
)

// procNames indexes procedure names by number — the `op` label of
// the exported per-procedure metrics.
var procNames = [NumProcs]string{
	"null", "mount", "getattr", "setattr", "lookup", "read", "write",
	"create", "remove", "rename", "mkdir", "rmdir", "readdir",
	"symlink", "readlink", "statfs",
}

// ProcName names a procedure ("read", "write", ...), or "proc<N>"
// for an unknown number.
func ProcName(proc uint32) string {
	if int(proc) < NumProcs {
		return procNames[proc]
	}
	return fmt.Sprintf("proc%d", proc)
}

// Message directions.
const (
	MsgCall  uint32 = 0
	MsgReply uint32 = 1
)

// Status codes, NFSERR-style.
const (
	OK uint32 = iota
	ErrNoent
	ErrExist
	ErrNotdir
	ErrIsdir
	ErrNotempty
	ErrNospc
	ErrStale
	ErrInval
	ErrNameTooLong
	ErrRofs
	ErrIO
)

// StatusOf maps framework errors onto wire status codes.
func StatusOf(err error) uint32 {
	switch {
	case err == nil:
		return OK
	case errors.Is(err, core.ErrNotFound):
		return ErrNoent
	case errors.Is(err, core.ErrExists):
		return ErrExist
	case errors.Is(err, core.ErrNotDir):
		return ErrNotdir
	case errors.Is(err, core.ErrIsDir):
		return ErrIsdir
	case errors.Is(err, core.ErrNotEmpty):
		return ErrNotempty
	case errors.Is(err, core.ErrNoSpace):
		return ErrNospc
	case errors.Is(err, core.ErrStale):
		return ErrStale
	case errors.Is(err, core.ErrNameTooLon):
		return ErrNameTooLong
	case errors.Is(err, core.ErrInval):
		return ErrInval
	case errors.Is(err, core.ErrRofs):
		return ErrRofs
	default:
		return ErrIO
	}
}

// ErrorOf inverts StatusOf for the client side.
func ErrorOf(status uint32) error {
	switch status {
	case OK:
		return nil
	case ErrNoent:
		return core.ErrNotFound
	case ErrExist:
		return core.ErrExists
	case ErrNotdir:
		return core.ErrNotDir
	case ErrIsdir:
		return core.ErrIsDir
	case ErrNotempty:
		return core.ErrNotEmpty
	case ErrNospc:
		return core.ErrNoSpace
	case ErrStale:
		return core.ErrStale
	case ErrNameTooLong:
		return core.ErrNameTooLon
	case ErrInval:
		return core.ErrInval
	case ErrRofs:
		return core.ErrRofs
	default:
		return fmt.Errorf("nfs: server error (status %d)", status)
	}
}

// FH is the stateless file handle: volume, inode number and the
// inode's generation. The generation pins the handle to one life of
// the inode slot — layouts that recycle inode numbers (FFS after a
// remove, any layout after crash recovery re-creates a file) mint a
// fresh generation, and the server answers ErrStale for the old one
// instead of silently serving the new file's bytes.
type FH struct {
	Vol  core.VolumeID
	File core.FileID
	Gen  uint64
}

// encodeFH appends the handle.
func encodeFH(e *xdr.Encoder, h FH) {
	e.Uint32(uint32(h.Vol))
	e.Uint64(uint64(h.File))
	e.Uint64(h.Gen)
}

// decodeFH reads a handle.
func decodeFH(d *xdr.Decoder) (FH, error) {
	v, err := d.Uint32()
	if err != nil {
		return FH{}, err
	}
	f, err := d.Uint64()
	if err != nil {
		return FH{}, err
	}
	g, err := d.Uint64()
	if err != nil {
		return FH{}, err
	}
	return FH{Vol: core.VolumeID(v), File: core.FileID(f), Gen: g}, nil
}

// encodeAttr appends file attributes.
func encodeAttr(e *xdr.Encoder, a fsys.FileAttr) {
	e.Uint64(uint64(a.ID))
	e.Uint32(uint32(a.Type))
	e.Int64(a.Size)
	e.Uint32(a.Nlink)
	e.Uint32(a.Mode)
	e.Int64(a.MTime)
	e.Int64(a.CTime)
	e.Uint64(a.Gen)
}

// decodeAttr reads file attributes.
func decodeAttr(d *xdr.Decoder) (fsys.FileAttr, error) {
	var a fsys.FileAttr
	id, err := d.Uint64()
	if err != nil {
		return a, err
	}
	typ, err := d.Uint32()
	if err != nil {
		return a, err
	}
	size, err := d.Int64()
	if err != nil {
		return a, err
	}
	nlink, err := d.Uint32()
	if err != nil {
		return a, err
	}
	mode, err := d.Uint32()
	if err != nil {
		return a, err
	}
	mtime, err := d.Int64()
	if err != nil {
		return a, err
	}
	ctime, err := d.Int64()
	if err != nil {
		return a, err
	}
	gen, err := d.Uint64()
	if err != nil {
		return a, err
	}
	a.Gen = gen
	a.ID = core.FileID(id)
	a.Type = core.FileType(typ)
	a.Size = size
	a.Nlink = nlink
	a.Mode = mode
	a.MTime = mtime
	a.CTime = ctime
	return a, nil
}

// MaxFrame bounds a single message (64 KB data plus headroom).
const MaxFrame = 1 << 20

// MaxIO is the largest read or write payload per call.
const MaxIO = 64 << 10

// frameKeep is the retention rule for recycled frame buffers: only
// frames smaller than a block — calls that carry no payload — go back
// on a connection's free list, so a burst of MaxIO-sized writes cannot
// pin window × 64 KB per connection (fmt's printer pool drops
// oversized buffers the same way). A write's frame is allocated per
// call and dropped, deliberately: on one P, recycling payload frames
// (and sending the client's payload by reference) left the LFS
// flusher doing nearly all the allocating, so GC cycles started inside
// the cleaner's critical section, and write_burst's p99 rose 27–34 %.
const frameKeep = core.BlockSize

// connReadBuf sizes a connection's read buffer: a record mark plus a
// frame of up to four blocks arrive in one read syscall.
const connReadBuf = 4*core.BlockSize + 64

// statusOff is the byte offset of a reply's status word, after the
// record mark, xid and direction.
const statusOff = 12

// beginMsg starts a message in e: a reserved record mark (writeMsg
// fills it in at offset 0), then xid, direction and one more word — a
// call's procedure, or a reply's status, which the server patches at
// statusOff once the procedure has run.
func beginMsg(e *xdr.Encoder, xid, dir, word uint32) {
	e.Reset()
	e.Uint32(0)
	e.Uint32(xid)
	e.Uint32(dir)
	e.Uint32(word)
}

// writeMsg fills in the record mark of a message begun with beginMsg
// and sends it — owned pieces and borrowed segments alike — with one
// vectored write: net.Buffers turns into writev on a TCP connection,
// so segments borrowed from cache frames or a caller's payload reach
// the wire without ever being copied into a contiguous buffer. out is
// the caller's reused vector (WriteTo consumes it, and a local one
// would escape and allocate per message). Either way e is reset
// afterwards, so neither keeps a reference to the borrowed segments.
func writeMsg(w io.Writer, e *xdr.Encoder, out *net.Buffers) error {
	defer e.Reset()
	n := e.Len() - 4
	if n > MaxFrame {
		return fmt.Errorf("nfs: frame of %d bytes exceeds maximum", n)
	}
	e.PutUint32At(0, uint32(n))
	*out = e.Parts()
	_, err := out.WriteTo(w)
	*out = nil
	return err
}

// readFrame receives one record-marked message into buf, or into a
// fresh slice when buf is too small for it.
func readFrame(r *bufio.Reader, buf []byte) ([]byte, error) {
	hdr, err := r.Peek(4)
	if err != nil {
		if len(hdr) > 0 && err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	r.Discard(4)
	if n > MaxFrame {
		return nil, fmt.Errorf("nfs: frame of %d bytes exceeds maximum", n)
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}
