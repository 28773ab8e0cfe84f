package core

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestDiskAddrNil(t *testing.T) {
	if !NilAddr.IsNil() {
		t.Fatal("NilAddr not nil")
	}
	a := DiskAddr{Disk: 2, LBA: 100}
	if a.IsNil() {
		t.Fatal("valid addr reads as nil")
	}
	if !strings.Contains(a.String(), "d2:100") {
		t.Fatalf("addr render %q", a.String())
	}
	if NilAddr.String() != "addr(nil)" {
		t.Fatalf("nil render %q", NilAddr.String())
	}
}

func TestBlockKeyString(t *testing.T) {
	k := BlockKey{Vol: 3, File: 7, Blk: 11}
	if k.String() != "v3/f7/b11" {
		t.Fatalf("key render %q", k.String())
	}
}

func TestFileTypeNames(t *testing.T) {
	for ft, want := range map[FileType]string{
		TypeFree: "free", TypeRegular: "regular", TypeDirectory: "directory",
		TypeSymlink: "symlink", TypeMultimedia: "multimedia",
	} {
		if ft.String() != want {
			t.Fatalf("%d renders %q, want %q", ft, ft.String(), want)
		}
	}
	if !strings.Contains(FileType(99).String(), "99") {
		t.Fatal("unknown type render")
	}
}

func TestRealMoverCopies(t *testing.T) {
	m := RealMover{}
	src := []byte{1, 2, 3, 4}
	dst := make([]byte, 4)
	if n := m.Move(dst, src, 4); n != 4 || dst[3] != 4 {
		t.Fatalf("move n=%d dst=%v", n, dst)
	}
	// Bounded by both slices.
	if n := m.Move(dst[:2], src, 4); n != 2 {
		t.Fatalf("short dst n=%d", n)
	}
	if n := m.Move(dst, src[:1], 4); n != 1 {
		t.Fatalf("short src n=%d", n)
	}
	if n := m.Move(dst, src, -1); n != 0 {
		t.Fatalf("negative n=%d", n)
	}
	if m.CopyCost(1<<20) != 0 {
		t.Fatal("real mover charges a modeled copy cost")
	}
}

func TestSimMoverCharges(t *testing.T) {
	m := DefaultSimMover()
	if m.Move(nil, nil, 100) != 100 {
		t.Fatal("sim move should report full count")
	}
	c1 := m.CopyCost(4096)
	c2 := m.CopyCost(8192)
	if c1 <= 0 || c2 <= c1 {
		t.Fatalf("copy cost not increasing: %d, %d", c1, c2)
	}
	if m.CopyCost(0) != 0 {
		t.Fatal("zero bytes should cost nothing")
	}
	// Zero-bandwidth config falls back to the default.
	z := &SimMover{}
	if z.CopyCost(1<<20) <= 0 {
		t.Fatal("fallback bandwidth missing")
	}
}

func TestSimMoverCostMonotone(t *testing.T) {
	m := DefaultSimMover()
	prop := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return m.CopyCost(x) <= m.CopyCost(y)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
