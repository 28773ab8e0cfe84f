// Package xdr implements the XDR (RFC 1014-style) encoding the
// NFS-like front-end speaks: big-endian 32-bit words, lengths
// followed by payloads, everything padded to 4-byte alignment.
package xdr

import (
	"encoding/binary"
	"fmt"
)

// Encoder appends XDR-encoded values to a buffer.
type Encoder struct {
	buf []byte
	// Borrowed segments spliced into the stream without copying
	// (OpaqueVec): cuts[i] is the owned-buffer offset after which
	// borrowed[i] appears on the wire. blen caches their total.
	cuts     []int
	borrowed [][]byte
	blen     int
	// parts is Parts' reused result.
	parts [][]byte
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// Reset empties the encoder for the next message. It keeps the
// capacity of the owned buffer and the borrow lists, so an encoder
// reused per call stops allocating once it has seen its largest
// message; the borrowed segments themselves are forgotten.
func (e *Encoder) Reset() {
	e.buf = e.buf[:0]
	e.cuts = e.cuts[:0]
	clear(e.borrowed)
	e.borrowed = e.borrowed[:0]
	e.blen = 0
	clear(e.parts)
	e.parts = e.parts[:0]
}

// Bytes returns the encoded buffer. With borrowed segments present
// it flattens the stream into a fresh contiguous copy; use Parts to
// transmit without that copy.
func (e *Encoder) Bytes() []byte {
	if len(e.borrowed) == 0 {
		return e.buf
	}
	out := make([]byte, 0, e.Len())
	for _, p := range e.Parts() {
		out = append(out, p...)
	}
	return out
}

// Len returns the encoded size so far, borrowed segments included.
func (e *Encoder) Len() int { return len(e.buf) + e.blen }

// Uint32 encodes a 32-bit unsigned integer.
func (e *Encoder) Uint32(v uint32) { e.buf = binary.BigEndian.AppendUint32(e.buf, v) }

// PutUint32At overwrites the 32-bit word at byte offset off of the
// owned buffer, which must already have been encoded (and precede any
// borrowed segment). It lets a message reserve a word up front — a
// record mark, a status — and fill it in once the rest is known.
func (e *Encoder) PutUint32At(off int, v uint32) {
	binary.BigEndian.PutUint32(e.buf[off:off+4], v)
}

// Uint64 encodes a 64-bit unsigned integer (XDR hyper).
func (e *Encoder) Uint64(v uint64) { e.buf = binary.BigEndian.AppendUint64(e.buf, v) }

// Int64 encodes a signed hyper.
func (e *Encoder) Int64(v int64) { e.Uint64(uint64(v)) }

// Opaque encodes variable-length opaque data: length then bytes,
// padded to a 4-byte boundary.
func (e *Encoder) Opaque(p []byte) {
	e.Uint32(uint32(len(p)))
	e.buf = append(e.buf, p...)
	for len(e.buf)%4 != 0 {
		e.buf = append(e.buf, 0)
	}
}

// String encodes an XDR string.
func (e *Encoder) String(s string) { e.Opaque([]byte(s)) }

// OpaqueVec encodes variable-length opaque data whose payload is
// supplied as segments borrowed from the caller (typically cache
// frames): the length header and trailing padding land in the owned
// buffer while the segments are recorded by reference, so Parts can
// hand the whole message to a vectored socket write without the
// payload ever being copied. n must equal the segments' total
// length. The caller must keep the segments resident and unmodified
// until the message has been transmitted or flattened with Bytes —
// the encode side of the OpaqueBorrow contract.
func (e *Encoder) OpaqueVec(segs [][]byte, n int) {
	e.Uint32(uint32(n))
	for _, s := range segs {
		if len(s) == 0 {
			continue
		}
		e.cuts = append(e.cuts, len(e.buf))
		e.borrowed = append(e.borrowed, s)
		e.blen += len(s)
	}
	for e.Len()%4 != 0 {
		e.buf = append(e.buf, 0)
	}
}

// Parts returns the encoded message as an ordered list of segments:
// the owned buffer split at each borrow point with the borrowed
// segments spliced in, suitable for writev. With no borrows it is
// the single owned buffer. The view aliases the encoder's state (the
// list itself is reused by the next Parts call) and goes stale if more
// values are encoded or the encoder is Reset.
func (e *Encoder) Parts() [][]byte {
	parts := e.parts[:0]
	if len(e.borrowed) == 0 {
		e.parts = append(parts, e.buf)
		return e.parts
	}
	prev := 0
	for i, cut := range e.cuts {
		if cut > prev {
			parts = append(parts, e.buf[prev:cut])
			prev = cut
		}
		parts = append(parts, e.borrowed[i])
	}
	if prev < len(e.buf) {
		parts = append(parts, e.buf[prev:])
	}
	e.parts = parts
	return parts
}

// Decoder consumes XDR-encoded values from a buffer.
type Decoder struct {
	buf []byte
	off int
}

// NewDecoder wraps buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Reset points the decoder at the start of buf, so one decoder can
// serve message after message.
func (d *Decoder) Reset(buf []byte) { d.buf, d.off = buf, 0 }

func (d *Decoder) need(n int) error {
	if d.off+n > len(d.buf) {
		return fmt.Errorf("xdr: truncated: need %d bytes at %d of %d", n, d.off, len(d.buf))
	}
	return nil
}

// Uint32 decodes a 32-bit unsigned integer.
func (d *Decoder) Uint32() (uint32, error) {
	if err := d.need(4); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v, nil
}

// Uint64 decodes an unsigned hyper.
func (d *Decoder) Uint64() (uint64, error) {
	if err := d.need(8); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v, nil
}

// Int64 decodes a signed hyper.
func (d *Decoder) Int64() (int64, error) {
	v, err := d.Uint64()
	return int64(v), err
}

// Opaque decodes variable-length opaque data. A failed decode
// consumes nothing: the cursor stays on the length header, so a
// caller can report the error against the unconsumed stream.
func (d *Decoder) Opaque() ([]byte, error) {
	start := d.off
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	padded := (int(n) + 3) &^ 3
	if err := d.need(padded); err != nil {
		d.off = start
		return nil, err
	}
	out := make([]byte, n)
	copy(out, d.buf[d.off:])
	d.off += padded
	return out, nil
}

// OpaqueBorrow decodes variable-length opaque data without copying:
// the returned slice aliases the decoder's buffer. The caller must
// consume (or copy) the bytes before the underlying buffer is reused
// and must not write through the slice — it is a borrow, not a
// transfer. The NFS server's write path uses it: the payload is the
// bulk of the frame and is copied into the block cache before the
// handler returns, while the frame buffer belongs to the call from the
// moment the connection's reader takes it off its free list until the
// reply has been written — only then does it go back for reuse. The
// client's read path uses it too: each reply frame is allocated for
// the caller, who keeps it. A failed decode consumes nothing, like
// Opaque.
func (d *Decoder) OpaqueBorrow() ([]byte, error) {
	start := d.off
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	padded := (int(n) + 3) &^ 3
	if err := d.need(padded); err != nil {
		d.off = start
		return nil, err
	}
	out := d.buf[d.off : d.off+int(n) : d.off+int(n)]
	d.off += padded
	return out, nil
}

// String decodes an XDR string.
func (d *Decoder) String() (string, error) {
	b, err := d.Opaque()
	return string(b), err
}
