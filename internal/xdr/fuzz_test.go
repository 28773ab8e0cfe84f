package xdr

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

// TestDecodeFailureTable truncates a valid stream at every length
// below each scalar's requirement: every decode must fail cleanly,
// never panic or return garbage silently.
func TestDecodeFailureTable(t *testing.T) {
	cases := []struct {
		name   string
		need   int
		decode func(*Decoder) error
	}{
		{"uint32", 4, func(d *Decoder) error { _, err := d.Uint32(); return err }},
		{"uint64", 8, func(d *Decoder) error { _, err := d.Uint64(); return err }},
		{"int64", 8, func(d *Decoder) error { _, err := d.Int64(); return err }},
		{"opaque-header", 4, func(d *Decoder) error { _, err := d.Opaque(); return err }},
		{"string-header", 4, func(d *Decoder) error { _, err := d.String(); return err }},
		{"fixed-5", 8, func(d *Decoder) error { _, err := d.FixedOpaque(5); return err }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for n := 0; n < tc.need; n++ {
				d := NewDecoder(make([]byte, n))
				if err := tc.decode(d); err == nil {
					t.Fatalf("%d of %d bytes accepted", n, tc.need)
				}
			}
			d := NewDecoder(make([]byte, tc.need))
			if err := tc.decode(d); err != nil {
				t.Fatalf("exact size rejected: %v", err)
			}
			if d.Remaining() != 0 {
				t.Fatalf("consumed %d of %d bytes", tc.need-d.Remaining(), tc.need)
			}
		})
	}
}

// TestOpaqueLengthLies covers opaque headers whose claimed length
// exceeds the data, including lengths whose padded form would
// overflow smaller integer types. A failed decode must also leave
// the cursor on the header, not past it.
func TestOpaqueLengthLies(t *testing.T) {
	for _, claim := range []uint32{8, 1000, 1 << 30, math.MaxUint32 - 3, math.MaxUint32} {
		e := NewEncoder()
		e.Uint32(claim)
		e.FixedOpaque([]byte{1, 2, 3}) // 4 padded bytes, fewer than claimed
		d := NewDecoder(e.Bytes())
		if _, err := d.Opaque(); err == nil {
			t.Fatalf("claimed length %d accepted with 4 bytes present", claim)
		}
		if got, err := d.Uint32(); err != nil || got != claim {
			t.Fatalf("failed opaque moved the cursor: %d %v", got, err)
		}
	}
}

// TestDecoderPartialConsumption: a failed decode must not advance
// the cursor past valid data that follows.
func TestDecoderTrailingDataAfterError(t *testing.T) {
	e := NewEncoder()
	e.Uint32(42)
	d := NewDecoder(e.Bytes())
	if _, err := d.Uint64(); err == nil { // needs 8, only 4 present
		t.Fatal("short uint64 accepted")
	}
	if v, err := d.Uint32(); err != nil || v != 42 {
		t.Fatalf("cursor moved by failed decode: %d %v", v, err)
	}
}

// TestMixedSequenceRoundTrip is the property test of the whole
// codec: arbitrary typed sequences encode then decode to the same
// values with nothing left over.
func TestMixedSequenceRoundTrip(t *testing.T) {
	prop := func(a uint32, b uint64, c int64, op []byte, s string, fx []byte) bool {
		if len(fx) > 64 {
			fx = fx[:64]
		}
		e := NewEncoder()
		e.Uint32(a)
		e.Opaque(op)
		e.Int64(c)
		e.String(s)
		e.FixedOpaque(fx)
		e.Uint64(b)
		if e.Len()%4 != 0 {
			return false
		}
		d := NewDecoder(e.Bytes())
		ga, err := d.Uint32()
		if err != nil || ga != a {
			return false
		}
		gop, err := d.Opaque()
		if err != nil || !bytes.Equal(gop, op) {
			return false
		}
		gc, err := d.Int64()
		if err != nil || gc != c {
			return false
		}
		gs, err := d.String()
		if err != nil || gs != s {
			return false
		}
		gfx, err := d.FixedOpaque(len(fx))
		if err != nil || !bytes.Equal(gfx, fx) {
			return false
		}
		gb, err := d.Uint64()
		if err != nil || gb != b {
			return false
		}
		return d.Remaining() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// FuzzDecoder drains arbitrary bytes through every decoder method in
// a fixed rotation: decoding must either fail cleanly or consume
// 4-byte-aligned chunks, and never panic.
func FuzzDecoder(f *testing.F) {
	e := NewEncoder()
	e.Uint32(7)
	e.String("seed corpus")
	e.Uint64(1 << 40)
	e.Opaque([]byte{9, 9, 9})
	f.Add(e.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		for i := 0; d.Remaining() > 0; i++ {
			before := d.Remaining()
			var err error
			switch i % 5 {
			case 0:
				_, err = d.Uint32()
			case 1:
				_, err = d.Opaque()
			case 2:
				_, err = d.Uint64()
			case 3:
				_, err = d.String()
			case 4:
				_, err = d.FixedOpaque(int(uint(before) % 16))
			}
			if err != nil {
				if d.Remaining() != before {
					t.Fatalf("failed decode consumed %d bytes", before-d.Remaining())
				}
				return
			}
			consumed := before - d.Remaining()
			if consumed%4 != 0 {
				t.Fatalf("unaligned consumption of %d bytes", consumed)
			}
			if consumed == 0 && i%5 != 4 { // only FixedOpaque(0) may consume nothing
				t.Fatal("successful decode consumed nothing")
			}
		}
	})
}

// FuzzStringRoundTrip: any byte string survives String encode/decode
// with correct padding.
func FuzzStringRoundTrip(f *testing.F) {
	f.Add("")
	f.Add("abc")
	f.Add("padded to boundary!")
	f.Fuzz(func(t *testing.T, s string) {
		e := NewEncoder()
		e.String(s)
		if e.Len()%4 != 0 {
			t.Fatalf("unaligned encoding of %q", s)
		}
		d := NewDecoder(e.Bytes())
		got, err := d.String()
		if err != nil || got != s {
			t.Fatalf("round trip of %q: %q %v", s, got, err)
		}
		if d.Remaining() != 0 {
			t.Fatalf("%d bytes left over", d.Remaining())
		}
	})
}
