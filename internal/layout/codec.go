package layout

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"repro/internal/core"
)

// On-disk inode geometry shared by the concrete layouts: a fixed
// 256-byte record with 12 direct block pointers, one single-indirect
// and one double-indirect pointer, in the FFS tradition. A 4 KB
// indirect block holds 512 pointers, so the map covers
// 12 + 512 + 512² blocks ≈ 1 GB per file at 4 KB blocks.
const (
	InodeSize     = 256
	NDirect       = 12
	AddrsPerBlock = core.BlockSize / 8
	InodesPerBlk  = core.BlockSize / InodeSize

	// MaxFileBlocks is the largest mappable file in blocks.
	MaxFileBlocks = NDirect + AddrsPerBlock + AddrsPerBlock*AddrsPerBlock
)

const inodeMagic = 0x50464931 // "PFI1"

// The record tail carries an FNV-1a checksum of the encoded bytes,
// mirroring the LFS segment-summary scheme: a sub-block tear that
// splices half an old record onto half a new one (the classic FFS
// inode-table hazard — the records are smaller than the device
// block) is caught at decode instead of silently serving a chimera.
const inodeSumOff = 176

func inodeSum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// DiskInode is the serialized inode form: meta-data plus the root
// pointers of the block map.
type DiskInode struct {
	Ino    Inode
	Direct [NDirect]int64
	Ind    int64
	DInd   int64
}

// EncodeInode writes d into buf (at least InodeSize bytes).
func EncodeInode(d *DiskInode, buf []byte) {
	if len(buf) < InodeSize {
		panic("layout: inode buffer too small")
	}
	le := binary.LittleEndian
	le.PutUint32(buf[0:], inodeMagic)
	buf[4] = byte(d.Ino.Type)
	le.PutUint32(buf[8:], d.Ino.Nlink)
	le.PutUint32(buf[12:], d.Ino.Mode)
	le.PutUint64(buf[16:], uint64(d.Ino.ID))
	le.PutUint64(buf[24:], uint64(d.Ino.Size))
	le.PutUint64(buf[32:], d.Ino.Version)
	le.PutUint64(buf[40:], uint64(d.Ino.MTime))
	le.PutUint64(buf[48:], uint64(d.Ino.CTime))
	le.PutUint64(buf[56:], uint64(d.Ino.ATime))
	off := 64
	for i := 0; i < NDirect; i++ {
		le.PutUint64(buf[off:], uint64(d.Direct[i]))
		off += 8
	}
	le.PutUint64(buf[off:], uint64(d.Ind))
	le.PutUint64(buf[off+8:], uint64(d.DInd))
	le.PutUint64(buf[inodeSumOff:], inodeSum(buf[:inodeSumOff]))
}

// DecodeInode parses an inode record.
func DecodeInode(buf []byte) (*DiskInode, error) {
	if len(buf) < InodeSize {
		return nil, fmt.Errorf("layout: inode buffer too small")
	}
	le := binary.LittleEndian
	if le.Uint32(buf[0:]) != inodeMagic {
		return nil, fmt.Errorf("layout: bad inode magic %#x", le.Uint32(buf[0:]))
	}
	if got, want := le.Uint64(buf[inodeSumOff:]), inodeSum(buf[:inodeSumOff]); got != want {
		return nil, fmt.Errorf("layout: torn inode record (checksum %#x, want %#x)", got, want)
	}
	d := &DiskInode{}
	d.Ino.Type = core.FileType(buf[4])
	d.Ino.Nlink = le.Uint32(buf[8:])
	d.Ino.Mode = le.Uint32(buf[12:])
	d.Ino.ID = core.FileID(le.Uint64(buf[16:]))
	d.Ino.Size = int64(le.Uint64(buf[24:]))
	d.Ino.Version = le.Uint64(buf[32:])
	d.Ino.MTime = int64(le.Uint64(buf[40:]))
	d.Ino.CTime = int64(le.Uint64(buf[48:]))
	d.Ino.ATime = int64(le.Uint64(buf[56:]))
	off := 64
	for i := 0; i < NDirect; i++ {
		d.Direct[i] = int64(le.Uint64(buf[off:]))
		off += 8
	}
	d.Ind = int64(le.Uint64(buf[off:]))
	d.DInd = int64(le.Uint64(buf[off+8:]))
	return d, nil
}

// EncodeAddrs serializes a block-pointer array into an indirect
// block image.
func EncodeAddrs(addrs []int64, buf []byte) {
	if len(addrs) > AddrsPerBlock || len(buf) < core.BlockSize {
		panic("layout: bad indirect block encode")
	}
	le := binary.LittleEndian
	clear(buf[:core.BlockSize])
	for i, a := range addrs {
		le.PutUint64(buf[i*8:], uint64(a+1)) // store +1 so 0 means hole
	}
}

// DecodeAddrs parses an indirect block image into n addresses.
func DecodeAddrs(buf []byte, n int) []int64 {
	if n > AddrsPerBlock {
		n = AddrsPerBlock
	}
	le := binary.LittleEndian
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(le.Uint64(buf[i*8:])) - 1
	}
	return out
}

// SplitBlockMap decomposes a flat block map into the direct slots,
// the single-indirect pointer span and the double-indirect spans.
// The returned indirect groups hold up to AddrsPerBlock addresses
// each: group 0 is the single-indirect block, groups 1..n are the
// leaves of the double-indirect tree.
func SplitBlockMap(blocks []int64) (direct [NDirect]int64, indirect [][]int64, err error) {
	for i := range direct {
		direct[i] = -1
	}
	if len(blocks) > MaxFileBlocks {
		return direct, nil, fmt.Errorf("layout: file of %d blocks exceeds maximum %d", len(blocks), MaxFileBlocks)
	}
	n := copy(direct[:], blocks)
	rest := blocks[n:]
	for len(rest) > 0 {
		g := rest
		if len(g) > AddrsPerBlock {
			g = g[:AddrsPerBlock]
		}
		indirect = append(indirect, g)
		rest = rest[len(g):]
	}
	return direct, indirect, nil
}
