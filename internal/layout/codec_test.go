package layout

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

// inodeEqual compares every serialized field.
func inodeEqual(a, b *DiskInode) bool {
	return a.Ino.ID == b.Ino.ID && a.Ino.Type == b.Ino.Type &&
		a.Ino.Size == b.Ino.Size && a.Ino.Nlink == b.Ino.Nlink &&
		a.Ino.Mode == b.Ino.Mode && a.Ino.Version == b.Ino.Version &&
		a.Ino.MTime == b.Ino.MTime && a.Ino.CTime == b.Ino.CTime &&
		a.Ino.ATime == b.Ino.ATime &&
		a.Direct == b.Direct && a.Ind == b.Ind && a.DInd == b.DInd
}

// TestInodeCodecTable round-trips a spread of representative inodes:
// every file type, hole pointers, extreme sizes and timestamps.
func TestInodeCodecTable(t *testing.T) {
	filled := func(v int64) (d [NDirect]int64) {
		for i := range d {
			d[i] = v
		}
		return
	}
	cases := []struct {
		name string
		ino  *DiskInode
	}{
		{"zero-value", &DiskInode{}},
		{"regular", &DiskInode{
			Ino:    Inode{ID: 1, Type: core.TypeRegular, Size: 4096, Nlink: 1, Mode: 0o644},
			Direct: filled(77), Ind: 12, DInd: 13,
		}},
		{"directory", &DiskInode{
			Ino: Inode{ID: 2, Type: core.TypeDirectory, Size: core.BlockSize, Nlink: 2, Mode: 0o755},
		}},
		{"symlink", &DiskInode{
			Ino: Inode{ID: 3, Type: core.TypeSymlink, Size: 12, Nlink: 1},
		}},
		{"holes-everywhere", &DiskInode{
			Ino:    Inode{ID: 4, Type: core.TypeRegular},
			Direct: filled(-1), Ind: -1, DInd: -1,
		}},
		{"extremes", &DiskInode{
			Ino: Inode{
				ID: core.FileID(1<<63 - 1), Type: core.TypeRegular,
				Size: 1<<62 - 1, Nlink: ^uint32(0), Mode: ^uint32(0),
				Version: ^uint64(0), MTime: -1, CTime: 1<<63 - 1, ATime: -(1 << 62),
			},
			Direct: filled(1<<62 - 1), Ind: 1<<62 - 1, DInd: -(1 << 60),
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			buf := make([]byte, InodeSize)
			EncodeInode(tc.ino, buf)
			got, err := DecodeInode(buf)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !inodeEqual(got, tc.ino) {
				t.Fatalf("round trip mismatch:\nin  %+v\nout %+v", tc.ino, got)
			}
			// A second encode of the decode must be byte-identical —
			// the codec has one canonical form.
			buf2 := make([]byte, InodeSize)
			EncodeInode(got, buf2)
			if !bytes.Equal(buf, buf2) {
				t.Fatal("re-encode is not canonical")
			}
		})
	}
}

// TestInodeDecodeFailures is the codec's failure-path table: short
// buffers at every interesting size and corrupted magic bytes.
func TestInodeDecodeFailures(t *testing.T) {
	good := make([]byte, InodeSize)
	EncodeInode(&DiskInode{Ino: Inode{ID: 9, Type: core.TypeRegular}}, good)

	for _, n := range []int{0, 1, 3, 4, 63, InodeSize - 1} {
		if _, err := DecodeInode(good[:n]); err == nil {
			t.Fatalf("decoded %d-byte buffer", n)
		}
	}
	for bit := 0; bit < 32; bit += 7 {
		bad := append([]byte(nil), good...)
		bad[bit/8] ^= 1 << (bit % 8) // corrupt the magic word
		if _, err := DecodeInode(bad); err == nil {
			t.Fatalf("decoded buffer with magic bit %d flipped", bit)
		}
	}
}

func TestEncodeInodePanicsOnShortBuffer(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("short encode buffer accepted")
		}
	}()
	EncodeInode(&DiskInode{}, make([]byte, InodeSize-1))
}

func TestEncodeAddrsPanicsOnBadArgs(t *testing.T) {
	t.Run("too-many-addrs", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("oversized addr list accepted")
			}
		}()
		EncodeAddrs(make([]int64, AddrsPerBlock+1), make([]byte, core.BlockSize))
	})
	t.Run("short-buffer", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("short addr buffer accepted")
			}
		}()
		EncodeAddrs([]int64{1}, make([]byte, core.BlockSize-1))
	})
}

func TestDecodeAddrsClampsCount(t *testing.T) {
	buf := make([]byte, core.BlockSize)
	EncodeAddrs([]int64{4, 5, 6}, buf)
	got := DecodeAddrs(buf, AddrsPerBlock+100)
	if len(got) != AddrsPerBlock {
		t.Fatalf("decoded %d addrs, want clamp to %d", len(got), AddrsPerBlock)
	}
	if got[0] != 4 || got[1] != 5 || got[2] != 6 || got[3] != -1 {
		t.Fatalf("prefix %v", got[:4])
	}
}

// TestAddrsCodecProperty: any addr slice up to a full block round
// trips exactly, and every slot beyond it reads back as a hole.
func TestAddrsCodecProperty(t *testing.T) {
	prop := func(raw []int64, pad uint8) bool {
		if len(raw) > AddrsPerBlock {
			raw = raw[:AddrsPerBlock]
		}
		buf := make([]byte, core.BlockSize)
		EncodeAddrs(raw, buf)
		n := len(raw) + int(pad)%8
		if n > AddrsPerBlock {
			n = AddrsPerBlock
		}
		got := DecodeAddrs(buf, n)
		for i := range got {
			if i < len(raw) {
				if got[i] != raw[i] {
					return false
				}
			} else if got[i] != -1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// FuzzDecodeInode feeds arbitrary bytes to the decoder: it must
// reject or accept without panicking, and anything accepted must
// re-encode to the same bytes (the codec is canonical).
func FuzzDecodeInode(f *testing.F) {
	good := make([]byte, InodeSize)
	EncodeInode(&DiskInode{
		Ino:    Inode{ID: 7, Type: core.TypeRegular, Size: 999, Nlink: 1},
		Direct: [NDirect]int64{1, 2, 3}, Ind: 4, DInd: 5,
	}, good)
	f.Add(good)
	f.Add(make([]byte, InodeSize))
	f.Add([]byte{})
	short := append([]byte(nil), good[:100]...)
	f.Add(short)
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodeInode(data)
		if err != nil {
			return
		}
		if len(data) < InodeSize {
			t.Fatalf("accepted %d-byte buffer", len(data))
		}
		if binary.LittleEndian.Uint32(data) != inodeMagic {
			t.Fatal("accepted wrong magic")
		}
		out := make([]byte, InodeSize)
		EncodeInode(d, out)
		// The encoder writes bytes [0,5) and [8,176) — magic, type,
		// meta-data and block pointers; the rest of the record is
		// padding it never touches. The written ranges must survive a
		// decode/encode cycle.
		const end = 64 + NDirect*8 + 16
		if !bytes.Equal(out[:5], data[:5]) || !bytes.Equal(out[8:end], data[8:end]) {
			t.Fatalf("decode/encode not canonical:\nin  %x\nout %x", data[:InodeSize], out)
		}
	})
}
