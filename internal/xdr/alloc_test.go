package xdr

import (
	"bytes"
	"testing"
)

// The two frames that carry payload, 8 KB each, built the way the NFS
// front-end builds them: a reused encoder, reset per message, with the
// record mark reserved up front and patched in at the end.
var payload = bytes.Repeat([]byte{0xA5}, 8192)

// encodeReadReply builds a read reply whose data is borrowed (the
// server's zero-copy path) and returns its wire pieces.
func encodeReadReply(e *Encoder, segs [][]byte) [][]byte {
	e.Reset()
	e.Uint32(0) // record mark
	e.Uint32(7) // xid
	e.Uint32(1) // reply
	e.Uint32(0) // status
	e.OpaqueVec(segs, len(payload))
	e.PutUint32At(0, uint32(e.Len()-4))
	return e.Parts()
}

// encodeWriteCall builds a write call with the payload copied in, as
// a frame that decodeWriteCall then takes apart.
func encodeWriteCall(e *Encoder) []byte {
	e.Reset()
	e.Uint32(7) // xid
	e.Uint32(0) // call
	e.Uint32(6) // write
	e.Uint32(1) // the file handle: volume, file, generation
	e.Uint64(9)
	e.Uint64(1)
	e.Int64(8192)
	e.Opaque(payload)
	return e.Bytes()
}

// decodeWriteCall takes a write call apart with a reused decoder,
// borrowing the payload out of the frame.
func decodeWriteCall(d *Decoder, frame []byte) []byte {
	d.Reset(frame)
	for i := 0; i < 4; i++ {
		d.Uint32()
	}
	d.Uint64()
	d.Uint64()
	d.Int64()
	data, _ := d.OpaqueBorrow()
	return data
}

// TestReusedCodecsAllocateNothing is the allocation gate of the codec:
// once a reset encoder has seen its largest message, encoding a read
// reply (borrowed payload, Parts included) and decoding a write call
// allocate nothing.
func TestReusedCodecsAllocateNothing(t *testing.T) {
	var e Encoder
	segs := [][]byte{payload[:4096], payload[4096:]}
	encodeReadReply(&e, segs) // warm: the encoder grows once
	if n := testing.AllocsPerRun(100, func() { encodeReadReply(&e, segs) }); n != 0 {
		t.Errorf("read reply encode: %.1f allocs, want 0", n)
	}
	frame := append([]byte(nil), encodeWriteCall(NewEncoder())...)
	var d Decoder
	if n := testing.AllocsPerRun(100, func() { decodeWriteCall(&d, frame) }); n != 0 {
		t.Errorf("write call decode: %.1f allocs, want 0", n)
	}
	if got := decodeWriteCall(&d, frame); !bytes.Equal(got, payload) {
		t.Error("write call payload came back wrong")
	}
	var w Encoder
	encodeWriteCall(&w)
	if n := testing.AllocsPerRun(100, func() { encodeWriteCall(&w) }); n != 0 {
		t.Errorf("write call encode into a reset encoder: %.1f allocs, want 0", n)
	}
}

// TestResetForgetsEverything: a reset encoder starts from nothing — no
// owned byte, no borrowed segment and no stale part survives into the
// next message.
func TestResetForgetsEverything(t *testing.T) {
	var e Encoder
	e.Uint32(1)
	e.OpaqueVec([][]byte{[]byte("borrowed")}, 8)
	e.Uint64(2)
	e.Parts()
	e.Reset()
	if e.Len() != 0 {
		t.Fatalf("reset encoder holds %d bytes", e.Len())
	}
	e.Uint32(3)
	parts := e.Parts()
	if len(parts) != 1 || !bytes.Equal(parts[0], []byte{0, 0, 0, 3}) {
		t.Fatalf("after reset, parts %v", parts)
	}
	if got := e.Bytes(); !bytes.Equal(got, []byte{0, 0, 0, 3}) {
		t.Fatalf("after reset, bytes %v", got)
	}
}

// TestPutUint32At patches a reserved word without disturbing its
// neighbours or the borrowed segments after it.
func TestPutUint32At(t *testing.T) {
	var e Encoder
	e.Uint32(0)
	e.Uint32(0xAAAAAAAA)
	e.OpaqueVec([][]byte{{1, 2, 3}}, 3)
	e.PutUint32At(0, uint32(e.Len()-4))
	d := NewDecoder(e.Bytes())
	if n, _ := d.Uint32(); n != 12 {
		t.Fatalf("patched mark %d, want 12", n)
	}
	if v, _ := d.Uint32(); v != 0xAAAAAAAA {
		t.Fatalf("neighbour word %#x", v)
	}
	if b, err := d.Opaque(); err != nil || !bytes.Equal(b, []byte{1, 2, 3}) {
		t.Fatalf("borrowed opaque %v %v", b, err)
	}
}

// BenchmarkEncodeReadReply encodes an 8 KB zero-copy read reply into a
// reset encoder: 0 allocs/op.
func BenchmarkEncodeReadReply(b *testing.B) {
	var e Encoder
	segs := [][]byte{payload[:4096], payload[4096:]}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		encodeReadReply(&e, segs)
	}
}

// BenchmarkDecodeWriteCall decodes an 8 KB write call with a reset
// decoder, borrowing the payload: 0 allocs/op.
func BenchmarkDecodeWriteCall(b *testing.B) {
	frame := append([]byte(nil), encodeWriteCall(NewEncoder())...)
	var d Decoder
	b.ReportAllocs()
	b.SetBytes(int64(len(frame)))
	for i := 0; i < b.N; i++ {
		decodeWriteCall(&d, frame)
	}
}
