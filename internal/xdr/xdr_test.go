package xdr

import (
	"bytes"
	"testing"
	"testing/quick"
)

// FixedOpaque encodes fixed-length opaque data (length known to both
// sides), padded.
func (e *Encoder) FixedOpaque(p []byte) {
	e.buf = append(e.buf, p...)
	for len(e.buf)%4 != 0 {
		e.buf = append(e.buf, 0)
	}
}

// Remaining returns the number of unconsumed bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// FixedOpaque decodes n fixed bytes plus padding.
func (d *Decoder) FixedOpaque(n int) ([]byte, error) {
	padded := (n + 3) &^ 3
	if err := d.need(padded); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	copy(out, d.buf[d.off:])
	d.off += padded
	return out, nil
}

// TestOpaqueBorrowAliasing pins the borrow variant's contract: the
// returned slice aliases the decoder's buffer (no copy), its
// capacity is clipped so appends cannot clobber the following
// fields, decoding continues correctly past the padding, and a
// truncated buffer consumes nothing — exactly like Opaque.
func TestOpaqueBorrowAliasing(t *testing.T) {
	e := NewEncoder()
	e.Opaque([]byte("hello!!")) // 7 bytes + 1 pad
	e.Uint32(0xDEADBEEF)
	buf := e.Bytes()

	d := NewDecoder(buf)
	got, err := d.OpaqueBorrow()
	if err != nil {
		t.Fatalf("OpaqueBorrow: %v", err)
	}
	if !bytes.Equal(got, []byte("hello!!")) {
		t.Fatalf("borrowed bytes = %q", got)
	}
	// No copy: the slice must point into the decoder's buffer.
	if &got[0] != &buf[4] {
		t.Fatal("OpaqueBorrow copied; the slice must alias the buffer")
	}
	// The borrow is capacity-clipped: an append must reallocate, not
	// overwrite the padding/next field in place.
	if cap(got) != len(got) {
		t.Fatalf("cap = %d, want %d (clipped to the payload)", cap(got), len(got))
	}
	next, err := d.Uint32()
	if err != nil || next != 0xDEADBEEF {
		t.Fatalf("field after borrow = %x, %v", next, err)
	}
	// Writes through the borrow are visible in the buffer — which is
	// why the contract forbids them; pin the aliasing direction too.
	got[0] = 'H'
	if buf[4] != 'H' {
		t.Fatal("borrow stopped aliasing the buffer")
	}

	// Truncated: nothing consumed, same as Opaque.
	d2 := NewDecoder(buf[:6])
	if _, err := d2.OpaqueBorrow(); err == nil {
		t.Fatal("truncated borrow succeeded")
	}
	if d2.Remaining() != 6 {
		t.Fatalf("failed borrow consumed bytes: %d remaining", d2.Remaining())
	}
}

func TestScalarRoundTrip(t *testing.T) {
	e := NewEncoder()
	e.Uint32(0xDEADBEEF)
	e.Uint64(0x0123456789ABCDEF)
	e.Int64(-42)
	d := NewDecoder(e.Bytes())
	if v, _ := d.Uint32(); v != 0xDEADBEEF {
		t.Fatalf("uint32 %#x", v)
	}
	if v, _ := d.Uint64(); v != 0x0123456789ABCDEF {
		t.Fatalf("uint64 %#x", v)
	}
	if v, _ := d.Int64(); v != -42 {
		t.Fatalf("int64 %d", v)
	}
	if d.Remaining() != 0 {
		t.Fatalf("remaining %d", d.Remaining())
	}
}

func TestOpaquePadding(t *testing.T) {
	for n := 0; n < 9; n++ {
		e := NewEncoder()
		payload := bytes.Repeat([]byte{7}, n)
		e.Opaque(payload)
		e.Uint32(99) // must land on aligned boundary
		if e.Len()%4 != 0 {
			t.Fatalf("n=%d: unaligned length %d", n, e.Len())
		}
		d := NewDecoder(e.Bytes())
		got, err := d.Opaque()
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("n=%d: opaque %v %v", n, got, err)
		}
		if v, _ := d.Uint32(); v != 99 {
			t.Fatalf("n=%d: trailer %d", n, v)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	prop := func(s string) bool {
		e := NewEncoder()
		e.String(s)
		e.String("sentinel")
		d := NewDecoder(e.Bytes())
		got, err := d.String()
		if err != nil || got != s {
			return false
		}
		tail, err := d.String()
		return err == nil && tail == "sentinel"
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFixedOpaque(t *testing.T) {
	e := NewEncoder()
	e.FixedOpaque([]byte{1, 2, 3})
	if e.Len() != 4 {
		t.Fatalf("fixed(3) length %d", e.Len())
	}
	d := NewDecoder(e.Bytes())
	got, err := d.FixedOpaque(3)
	if err != nil || !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("fixed round trip: %v %v", got, err)
	}
}

func TestTruncatedDecodeErrors(t *testing.T) {
	d := NewDecoder([]byte{0, 0})
	if _, err := d.Uint32(); err == nil {
		t.Fatal("short uint32 accepted")
	}
	e := NewEncoder()
	e.Uint32(1000) // claims 1000 bytes follow
	d = NewDecoder(e.Bytes())
	if _, err := d.Opaque(); err == nil {
		t.Fatal("lying opaque length accepted")
	}
}
