//go:build linux

package device

import (
	"fmt"
	"os"
	"syscall"
	"unsafe"
)

// iovMax is the kernel's per-call iovec limit (UIO_MAXIOV); longer
// vectors go out as several preadv/pwritev calls.
const iovMax = 1024

// vecIO is the file driver's scatter-gather transfer state. The
// driver's one worker owns it, so it keeps everything a transfer
// needs from request to request: the file's raw connection, taken
// once at open; the Control callback, bound once as a method value;
// the segment and iovec scratch; and the current transfer's
// arguments and result.
type vecIO struct {
	rc   syscall.RawConn
	run  func(fd uintptr) // v.loop
	segs [][]byte
	iov  []syscall.Iovec

	off  int64
	trap uintptr
	name string
	err  error
}

func (v *vecIO) init(f *os.File) error {
	rc, err := f.SyscallConn()
	if err != nil {
		return err
	}
	v.rc, v.run = rc, v.loop
	return nil
}

// transfer moves vec to (OpWrite: pwritev) or from (OpRead: preadv)
// the file starting at off, looping over iovec-limit chunks and short
// transfers. A zero-length transfer is an error: the image is
// truncated to capacity up front, so every block address is readable
// in full.
//
// Control pins the descriptor for the duration of the transfer: a
// concurrent Close (server crash teardown with a request still in
// flight) defers the close until the transfer is done instead of
// racing the raw syscalls, matching the safety os.File gives ReadAt;
// a transfer that starts after the Close fails with os.ErrClosed.
func (v *vecIO) transfer(op Op, vec [][]byte, off int64) error {
	v.trap, v.name = syscall.SYS_PREADV, "preadv"
	if op == OpWrite {
		v.trap, v.name = syscall.SYS_PWRITEV, "pwritev"
	}
	for _, s := range vec {
		if len(s) > 0 {
			v.segs = append(v.segs, s)
		}
	}
	n := min(len(v.segs), iovMax)
	if cap(v.iov) < n {
		v.iov = make([]syscall.Iovec, 0, n)
	}
	v.off = off
	err := v.rc.Control(v.run)
	if err != nil {
		// Control fails only on a closed file; report it the way
		// os.File's own calls do.
		err = fmt.Errorf("device: %s: %w", v.name, os.ErrClosed)
	} else {
		err = v.err
	}
	// Drop the request's buffers: an iovec's Base pins its segment
	// as surely as the segment header does.
	clear(v.segs)
	clear(v.iov[:n])
	v.segs, v.err = v.segs[:0], nil
	return err
}

// loop runs the transfer on the pinned descriptor. Short transfers
// advance the front segment in place, in the scratch copy of the
// segment headers.
func (v *vecIO) loop(fd uintptr) {
	segs, off := v.segs, v.off
	for len(segs) > 0 {
		iov := v.iov[:0]
		for _, s := range segs[:min(len(segs), iovMax)] {
			e := syscall.Iovec{Base: &s[0]}
			e.SetLen(len(s))
			iov = append(iov, e)
		}
		// preadv/pwritev split the offset across two registers; the
		// kernel ORs (pos_h << 32) with pos_l, so passing the full
		// offset as pos_l is correct on 64-bit too.
		got, _, errno := syscall.Syscall6(v.trap, fd,
			uintptr(unsafe.Pointer(&iov[0])), uintptr(len(iov)),
			uintptr(off), uintptr(off>>32), 0)
		if errno == syscall.EINTR {
			continue
		}
		if errno != 0 {
			v.err = os.NewSyscallError(v.name, errno)
			return
		}
		if got == 0 {
			v.err = fmt.Errorf("device: %s: unexpected EOF at offset %d", v.name, off)
			return
		}
		off += int64(got)
		segs = advanceVec(segs, int(got))
	}
}

// advanceVec drops n transferred bytes off the front of segs,
// trimming the first remaining segment on a mid-segment stop.
func advanceVec(segs [][]byte, n int) [][]byte {
	for n > 0 && len(segs) > 0 {
		if n >= len(segs[0]) {
			n -= len(segs[0])
			segs = segs[1:]
			continue
		}
		segs[0] = segs[0][n:]
		n = 0
	}
	return segs
}
