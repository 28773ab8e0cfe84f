package lfs

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"io"
	"os"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/layout"
	"repro/internal/sched"
)

// rawBlock reads or writes one block of the rig's device, below the
// layout.
func rawBlock(tk sched.Task, t *testing.T, r *realRig, op device.Op, lba int64, buf []byte) {
	t.Helper()
	req := &device.Request{Op: op, Addr: core.DiskAddr{LBA: lba}, Blocks: 1, Data: buf}
	if err := r.drv.Do(tk, req); err != nil {
		t.Fatalf("raw %v of block %d: %v", op, lba, err)
	}
}

// loadImage decompresses a testdata image.
func loadImage(t *testing.T, path string) []byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	img, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestCRC32CKnownAnswer pins the v2 checksum to Castagnoli's CRC32C
// (RFC 3720's check value), so no other polynomial or table slips in.
func TestCRC32CKnownAnswer(t *testing.T) {
	if got := formatV2.sum([]byte("123456789")); got != 0xE3069283 {
		t.Fatalf("CRC32C(\"123456789\") = %#x, want 0xe3069283", got)
	}
	block := blockOf(7)
	if n := testing.AllocsPerRun(100, func() { formatV2.sum(block) }); n != 0 {
		t.Fatalf("CRC32C allocates %v per block", n)
	}
}

// TestFormatWritesV2 checks that a fresh volume is v2 on disk: the
// superblock and every segment summary carry the v2 magic.
func TestFormatWritesV2(t *testing.T) {
	r := newRealRig(45, 1024)
	run(t, r.k, func(tk sched.Task) {
		r.l.Format(tk)
		r.l.Mount(tk)
		ino, _ := r.l.AllocInode(tk, core.TypeRegular)
		writeFile(tk, r.l, ino, 0x11, 0x12)
		if err := r.l.Sync(tk); err != nil {
			t.Fatalf("Sync: %v", err)
		}
		buf := make([]byte, core.BlockSize)
		rawBlock(tk, t, r, device.OpRead, 0, buf)
		if m := binary.LittleEndian.Uint32(buf); m != formatV2.magic {
			t.Fatalf("superblock magic %#x, want %#x", m, formatV2.magic)
		}
		rawBlock(tk, t, r, device.OpRead, r.l.segStart(r.l.segOf(ino.BlockAddr(0))), buf)
		if m := binary.LittleEndian.Uint32(buf); m != formatV2.magic {
			t.Fatalf("summary magic %#x, want %#x", m, formatV2.magic)
		}
	})
}

// verifyV1Log checks that the volume is still v1 on disk: the
// superblock magic, and every in-use segment's summary magic and slot
// checksums, which must be FNV-1a.
func verifyV1Log(t *testing.T, tk sched.Task, r *realRig, l *LFS, when string) {
	t.Helper()
	buf := make([]byte, core.BlockSize)
	rawBlock(tk, t, r, device.OpRead, 0, buf)
	if m := binary.LittleEndian.Uint32(buf); m != formatV1.magic || l.format.magic != formatV1.magic {
		t.Fatalf("%s: superblock magic %#x, mounted as %#x: want v1", when, m, l.format.magic)
	}
	segs := 0
	for seg := 0; seg < l.nsegs; seg++ {
		if l.sut[seg].state == segFree {
			continue
		}
		rawBlock(tk, t, r, device.OpRead, l.segStart(seg), buf)
		if m := binary.LittleEndian.Uint32(buf); m != formatV1.magic {
			t.Fatalf("%s: segment %d summary magic %#x, want v1", when, seg, m)
		}
		sum, err := l.decodeSummary(seg, buf)
		if err != nil {
			t.Fatalf("%s: segment %d: %v", when, seg, err)
		}
		slot := make([]byte, core.BlockSize)
		for i, e := range sum.entries {
			if e.Kind == 0 {
				continue
			}
			rawBlock(tk, t, r, device.OpRead, l.segStart(seg)+1+int64(i), slot)
			if fnv1a(slot) != sum.sums[i] {
				t.Fatalf("%s: segment %d slot %d: summary checksum is not FNV-1a of the slot", when, seg, i)
			}
		}
		segs++
	}
	if segs == 0 {
		t.Fatalf("%s: no segment in use", when)
	}
}

// TestV1ImageRecoversAndStaysV1 loads testdata/v1.img.gz, a crashed
// 512-block volume of 16-block segments written by the last code
// before the v2 format (FNV-1a checksums, two-ended segments, barriers
// committing in place). It was made on a newRealRig(44, 512): files 2
// (20 blocks 0x10+i) and 3 (0xB0..0xB2) written and synced, then five
// one-block overwrites of file 2 (block i to 0xA0+i), each hardened by
// a WriteBarrier, then a new file 4 (0xC0, 0xC1) and a barrier, then
// the device image dumped with no Sync. The volume must roll forward,
// take new writes and barriers, and roll forward again after a second
// crash, writing and verifying FNV-1a throughout.
func TestV1ImageRecoversAndStaysV1(t *testing.T) {
	img := loadImage(t, "testdata/v1.img.gz")
	r := newRealRig(46, int64(len(img)/core.BlockSize))
	run(t, r.k, func(tk sched.Task) {
		deviceImage(tk, t, r, device.OpWrite, img)
		l := r.remount()
		st, err := l.Recover(tk)
		if err != nil {
			t.Fatalf("Recover: %v", err)
		}
		if st.RolledSegments != 2 || st.DataBlocks != 5 || st.InodeRecords != 6 || st.TornTail {
			t.Fatalf("roll-forward of the v1 log: %+v", st)
		}
		mustClean(t, tk, l, "after recovery")
		fileA := make([]byte, 20)
		for i := range fileA {
			fileA[i] = byte(0x10 + i)
			if i < 5 {
				fileA[i] = byte(0xA0 + i)
			}
		}
		fileB := []byte{0xB0, 0xB1, 0xB2}
		fileC := []byte{0xC0, 0xC1}
		expectBlocks(t, tk, l, 2, fileA, "after recovery")
		expectBlocks(t, tk, l, 3, fileB, "after recovery")
		expectBlocks(t, tk, l, 4, fileC, "after recovery")
		verifyV1Log(t, tk, r, l, "after recovery")

		// New writes, each hardened by a barrier, then a second crash.
		a, err := l.GetInode(tk, 2)
		if err != nil {
			t.Fatalf("GetInode: %v", err)
		}
		for _, b := range []int{7, 19} {
			if err := l.WriteBlocks(tk, a, one(b, byte(0xE0+b))); err != nil {
				t.Fatalf("write: %v", err)
			}
			fileA[b] = byte(0xE0 + b)
			if err := l.WriteBarrier(tk); err != nil {
				t.Fatalf("barrier: %v", err)
			}
		}
		d, _ := l.AllocInode(tk, core.TypeRegular)
		if err := writeFile(tk, l, d, 0xD0, 0xD1, 0xD2); err != nil {
			t.Fatalf("write: %v", err)
		}
		if err := l.WriteBarrier(tk); err != nil {
			t.Fatalf("barrier: %v", err)
		}

		l = r.remount()
		st, err = l.Recover(tk)
		if err != nil {
			t.Fatalf("second Recover: %v", err)
		}
		// File d's data entries precede its first inode record: they
		// replay as orphans and the record brings them in.
		if st.RolledSegments != 1 || st.DataBlocks != 2 || st.OrphanBlocks != 3 || st.InodeRecords != 3 || st.TornTail {
			t.Fatalf("second roll-forward: %+v", st)
		}
		mustClean(t, tk, l, "after second recovery")
		expectBlocks(t, tk, l, 2, fileA, "after second recovery")
		expectBlocks(t, tk, l, 3, fileB, "after second recovery")
		expectBlocks(t, tk, l, 4, fileC, "after second recovery")
		expectBlocks(t, tk, l, d.ID, []byte{0xD0, 0xD1, 0xD2}, "after second recovery")
		verifyV1Log(t, tk, r, l, "after second recovery")
	})
}

// TestFlippedBitLosesToSiblingCheckpoint flips one bit in the usage
// table of a v2 volume's newer checkpoint region: the region's CRC32C
// must reject it, the mount must fall back to the older sibling, and
// roll-forward must still find what the lost checkpoint covered.
func TestFlippedBitLosesToSiblingCheckpoint(t *testing.T) {
	r := newRealRig(47, 1024)
	run(t, r.k, func(tk sched.Task) {
		r.l.Format(tk)
		r.l.Mount(tk)
		ino, _ := r.l.AllocInode(tk, core.TypeRegular)
		writeFile(tk, r.l, ino, 0x31, 0x32, 0x33)
		// Format checkpointed region 0 under seq 1; Sync writes region
		// 1 under seq 2.
		if r.l.cpNext != 1 || r.l.Sync(tk) != nil {
			t.Fatalf("setup: next region %d", r.l.cpNext)
		}
		newer := r.l.cpBase(1)
		buf := make([]byte, core.BlockSize)
		rawBlock(tk, t, r, device.OpRead, newer+1, buf)
		buf[5] ^= 0x10
		rawBlock(tk, t, r, device.OpWrite, newer+1, buf)

		l := r.remount()
		if err := l.Mount(tk); err != nil {
			t.Fatalf("Mount: %v", err)
		}
		if l.seq != 2 || l.cpNext != 1 {
			t.Fatalf("mounted seq %d, next region %d: want the seq-1 region 0", l.seq, l.cpNext)
		}
		l = r.remount()
		if _, err := l.Recover(tk); err != nil {
			t.Fatalf("Recover: %v", err)
		}
		mustClean(t, tk, l, "after recovery")
		expectBlocks(t, tk, l, ino.ID, []byte{0x31, 0x32, 0x33}, "after recovery")
	})
}

// TestCorruptSuperblockIsAnError damages one superblock field at a
// time. Mount and Recover must each return an error — no
// panic, and no allocation sized by the damaged field.
func TestCorruptSuperblockIsAnError(t *testing.T) {
	const huge = 1 << 40
	for _, c := range []struct {
		name string
		off  int
		wide bool // 8-byte field
		val  uint64
	}{
		{"magic", 0, false, 0x4C465339},
		{"segblocks-zero", 4, false, 0},
		{"segblocks-small", 4, false, 7},
		{"segblocks-over-summary", 4, false, maxSumEntries + 2},
		{"segblocks-other", 4, false, 32},
		{"nsegs-huge", 8, true, huge},
		{"nsegs-zero", 8, true, 0},
		{"cpsize-huge", 16, true, huge},
		{"cpsize-zero", 16, true, 0},
		{"seg0-huge", 24, true, huge},
		{"seg0-zero", 24, true, 0},
		{"maxinodes-zero", 32, true, 0},
		{"maxinodes-over-checkpoint", 32, true, maxImapChunks*imapPerChunk + 1},
		{"maxinodes-huge", 32, true, 1 << 63},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := newRealRig(48, 1024)
			run(t, r.k, func(tk sched.Task) {
				if err := r.l.Format(tk); err != nil {
					t.Fatalf("Format: %v", err)
				}
				buf := make([]byte, core.BlockSize)
				rawBlock(tk, t, r, device.OpRead, 0, buf)
				if c.wide {
					binary.LittleEndian.PutUint64(buf[c.off:], c.val)
				} else {
					binary.LittleEndian.PutUint32(buf[c.off:], uint32(c.val))
				}
				rawBlock(tk, t, r, device.OpWrite, 0, buf)

				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				errMount := r.remount().Mount(tk)
				_, errRecover := r.remount().Recover(tk)
				runtime.ReadMemStats(&after)
				if errMount == nil || errRecover == nil {
					t.Fatalf("damaged superblock accepted: Mount %v, Recover %v", errMount, errRecover)
				}
				if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
					t.Fatalf("rejecting the superblock allocated %d bytes", grew)
				}
				t.Log(errMount)
			})
		})
	}
}

// sumSink keeps BenchmarkBlockSum's calls from being optimized away.
var sumSink uint32

// BenchmarkBlockSum measures each format's checksum over one 4 KB
// block (run with -benchmem).
func BenchmarkBlockSum(b *testing.B) {
	block := make([]byte, core.BlockSize)
	for i := range block {
		block[i] = byte(i * 7)
	}
	for _, f := range []struct {
		name string
		sum  func([]byte) uint32
	}{{"v1", formatV1.sum}, {"v2", formatV2.sum}} {
		b.Run(f.name, func(b *testing.B) {
			b.SetBytes(core.BlockSize)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sumSink = f.sum(block)
			}
		})
	}
}

// BenchmarkFlushOneBlock measures one flush of a one-block overwrite
// to a v2 volume on a RAM device: WriteBlocks of the block, then
// WriteBarrier (data slot, inode block and summary commit). The
// cleaner's share is included as the log wraps.
func BenchmarkFlushOneBlock(b *testing.B) {
	k := sched.NewVirtual(1)
	k.Go("bench", func(tk sched.Task) {
		defer k.Stop()
		drv := device.NewMemDriver(k, "mem0", 4096, nil)
		l := New(k, "vol0", layout.NewPartition(drv, 0, 0, 4096, false), Config{SegBlocks: 128, MaxInodes: 64})
		if err := l.Format(tk); err != nil {
			b.Error(err)
			return
		}
		if err := l.Mount(tk); err != nil {
			b.Error(err)
			return
		}
		ino, err := l.AllocInode(tk, core.TypeRegular)
		if err == nil {
			err = writeFile(tk, l, ino, bytes.Repeat([]byte{1}, 8)...)
		}
		if err == nil {
			err = l.Sync(tk)
		}
		if err != nil {
			b.Error(err)
			return
		}
		var ws [8][]layout.BlockWrite
		for i := range ws {
			ws[i] = one(i, byte(0x80+i))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := l.WriteBlocks(tk, ino, ws[i%len(ws)]); err != nil {
				b.Error(err)
				return
			}
			if err := l.WriteBarrier(tk); err != nil {
				b.Error(err)
				return
			}
		}
	})
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}
