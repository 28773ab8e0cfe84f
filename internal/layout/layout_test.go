package layout

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/sched"
)

func TestInodeBlockMap(t *testing.T) {
	ino := &Inode{}
	if ino.BlockAddr(0) != -1 || ino.BlockAddr(-1) != -1 {
		t.Fatal("empty map should read -1")
	}
	ino.SetBlockAddr(3, 777)
	if ino.NBlocks() != 4 {
		t.Fatalf("NBlocks = %d, want 4 (grown with holes)", ino.NBlocks())
	}
	if ino.BlockAddr(3) != 777 || ino.BlockAddr(1) != -1 {
		t.Fatal("map contents wrong")
	}
}

func TestBlocksForSize(t *testing.T) {
	cases := map[int64]int64{
		0: 0, 1: 1, core.BlockSize: 1, core.BlockSize + 1: 2,
		10 * core.BlockSize: 10,
	}
	for n, want := range cases {
		if got := BlocksForSize(n); got != want {
			t.Fatalf("BlocksForSize(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestInodeCodecRoundTrip(t *testing.T) {
	d := &DiskInode{
		Ino: Inode{
			ID: 42, Type: core.TypeRegular, Size: 123456, Nlink: 3,
			Mode: 0o644, Version: 9, MTime: 111, CTime: 222, ATime: 333,
		},
		Ind:  1000,
		DInd: -1,
	}
	for i := range d.Direct {
		d.Direct[i] = int64(i * 7)
	}
	buf := make([]byte, InodeSize)
	EncodeInode(d, buf)
	got, err := DecodeInode(buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Ino.ID != d.Ino.ID || got.Ino.Type != d.Ino.Type ||
		got.Ino.Size != d.Ino.Size || got.Ino.Nlink != d.Ino.Nlink ||
		got.Ino.Mode != d.Ino.Mode || got.Ino.Version != d.Ino.Version ||
		got.Ino.MTime != d.Ino.MTime || got.Ino.CTime != d.Ino.CTime ||
		got.Ino.ATime != d.Ino.ATime ||
		got.Direct != d.Direct || got.Ind != d.Ind || got.DInd != d.DInd {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", got, d)
	}
}

func TestInodeCodecRejectsGarbage(t *testing.T) {
	if _, err := DecodeInode(make([]byte, InodeSize)); err == nil {
		t.Fatal("zero buffer decoded")
	}
	if _, err := DecodeInode(make([]byte, 10)); err == nil {
		t.Fatal("short buffer decoded")
	}
}

func TestAddrsCodec(t *testing.T) {
	addrs := []int64{5, -1, 0, 999999}
	buf := make([]byte, core.BlockSize)
	EncodeAddrs(addrs, buf)
	got := DecodeAddrs(buf, len(addrs))
	for i := range addrs {
		if got[i] != addrs[i] {
			t.Fatalf("addr %d: %d != %d", i, got[i], addrs[i])
		}
	}
	// Unwritten slots decode as holes.
	rest := DecodeAddrs(buf, 10)
	if rest[5] != -1 {
		t.Fatalf("pad slot decoded as %d", rest[5])
	}
}

func TestSplitBlockMap(t *testing.T) {
	// Small file: all direct.
	direct, ind, err := SplitBlockMap([]int64{1, 2, 3})
	if err != nil || ind != 0 || direct[0] != 1 || direct[3] != -1 {
		t.Fatalf("small: %v %v %v", direct, ind, err)
	}
	// Just over direct: one indirect group.
	blocks := make([]int64, NDirect+5)
	for i := range blocks {
		blocks[i] = int64(i)
	}
	_, ind, err = SplitBlockMap(blocks)
	if err != nil || ind != 1 || len(IndirectGroup(blocks, 0)) != 5 {
		t.Fatalf("indirect: %d groups %v", ind, err)
	}
	// Into double-indirect: multiple groups.
	blocks = make([]int64, NDirect+AddrsPerBlock+10)
	for i := range blocks {
		blocks[i] = int64(i)
	}
	_, ind, err = SplitBlockMap(blocks)
	if err != nil || ind != 2 || len(IndirectGroup(blocks, 1)) != 10 {
		t.Fatalf("double: %d groups %v", ind, err)
	}
	// Too large is rejected.
	if _, _, err := SplitBlockMap(make([]int64, MaxFileBlocks+1)); err == nil {
		t.Fatal("oversized map accepted")
	}
}

func TestSplitBlockMapProperty(t *testing.T) {
	prop := func(n uint16) bool {
		size := int(n) % 3000
		blocks := make([]int64, size)
		for i := range blocks {
			blocks[i] = int64(i + 1)
		}
		direct, groups, err := SplitBlockMap(blocks)
		if err != nil {
			return false
		}
		// Reassemble and compare.
		var back []int64
		for i := 0; i < NDirect && i < size; i++ {
			back = append(back, direct[i])
		}
		for g := 0; g < groups; g++ {
			back = append(back, IndirectGroup(blocks, g)...)
		}
		if len(back) != size {
			return false
		}
		for i := range back {
			if back[i] != blocks[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionBounds(t *testing.T) {
	k := sched.NewVirtual(1)
	drv := device.NewMemDriver(k, "m", 100, nil)
	p := NewPartition(drv, 0, 10, 50, false)
	k.Go("t", func(tk sched.Task) {
		buf := make([]byte, core.BlockSize)
		if err := p.Read(tk, 0, 1, buf); err != nil {
			t.Errorf("in-range read: %v", err)
		}
		if err := p.Read(tk, 50, 1, buf); err == nil {
			t.Error("read past partition accepted")
		}
		if err := p.Write(tk, -1, 1, buf); err == nil {
			t.Error("negative write accepted")
		}
		if err := p.WriteDeadline(tk, 0, 1, buf, 100); err != nil {
			t.Errorf("deadline write: %v", err)
		}
		k.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionRejectsBadGeometry(t *testing.T) {
	k := sched.NewVirtual(1)
	drv := device.NewMemDriver(k, "m", 100, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("oversized partition accepted")
		}
	}()
	NewPartition(drv, 0, 50, 60, false)
}

func TestPartitionOffsetIsolation(t *testing.T) {
	// Two partitions on one device must not see each other's data.
	k := sched.NewVirtual(1)
	drv := device.NewMemDriver(k, "m", 100, nil)
	p1 := NewPartition(drv, 0, 0, 50, false)
	p2 := NewPartition(drv, 0, 50, 50, false)
	k.Go("t", func(tk sched.Task) {
		a := make([]byte, core.BlockSize)
		b := make([]byte, core.BlockSize)
		for i := range a {
			a[i] = 0xAA
		}
		p1.Write(tk, 5, 1, a)
		p2.Read(tk, 5, 1, b)
		if b[0] == 0xAA {
			t.Error("partitions overlap")
		}
		k.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
