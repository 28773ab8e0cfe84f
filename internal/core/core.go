// Package core holds the shared vocabulary of the cut-and-paste
// component library: identifiers, disk addressing, block geometry,
// the DataMover abstraction that separates real systems from
// simulators, and the component registry used to assemble systems.
//
// Every other package in the framework depends on core and nothing
// else below it; core itself depends only on the standard library.
package core

import (
	"errors"
	"fmt"
)

// BlockSize is the file-system block size in bytes. The Sprite file
// servers the paper replays used 4 KB blocks; the framework is
// parameterized elsewhere but this is the default everywhere.
const BlockSize = 4096

// SectorSize is the disk sector size in bytes (SCSI standard 512).
const SectorSize = 512

// SectorsPerBlock is the number of disk sectors in one FS block.
const SectorsPerBlock = BlockSize / SectorSize

// FileID identifies a file within a volume (an inode number).
type FileID uint64

// RootFile is the conventional inode number of a volume's root
// directory, mirroring Unix tradition (inode 2).
const RootFile FileID = 2

// VolumeID identifies one file system among the volumes a server
// exports. The paper's Sprite replay had 14 volumes over 10 disks.
type VolumeID uint16

// BlockNo is a block index within a file (0 = first block).
type BlockNo int64

// DiskAddr is a physical block address on a disk: the disk number
// within the system and the logical block address on that disk, in
// file-system blocks (not sectors).
type DiskAddr struct {
	Disk int
	LBA  int64
}

// IsNil reports whether a is the "no address" value: a negative LBA
// is never a valid location.
func (a DiskAddr) IsNil() bool { return a.LBA < 0 }

func (a DiskAddr) String() string {
	if a.IsNil() {
		return "addr(nil)"
	}
	return fmt.Sprintf("addr(d%d:%d)", a.Disk, a.LBA)
}

// BlockKey names a cached block: a (volume, file, block-in-file)
// triple. Cache identity is file-relative, as in the paper's cache
// component, so a block keeps its identity when the layout relocates
// it on disk (as the LFS does on every write).
type BlockKey struct {
	Vol  VolumeID
	File FileID
	Blk  BlockNo
}

func (k BlockKey) String() string {
	return fmt.Sprintf("v%d/f%d/b%d", k.Vol, k.File, k.Blk)
}

// FileType discriminates the instantiated-file classes of the
// framework. The abstract client interface inspects the type stored
// in the inode and instantiates the matching derived component.
type FileType uint8

const (
	TypeFree FileType = iota // unused inode
	TypeRegular
	TypeDirectory
	TypeSymlink
	TypeMultimedia // continuous-media file with rate requirements
)

func (t FileType) String() string {
	switch t {
	case TypeFree:
		return "free"
	case TypeRegular:
		return "regular"
	case TypeDirectory:
		return "directory"
	case TypeSymlink:
		return "symlink"
	case TypeMultimedia:
		return "multimedia"
	default:
		return fmt.Sprintf("filetype(%d)", uint8(t))
	}
}

// Errors shared across the framework. These mirror the abstract
// client interface's failure modes and are mapped onto protocol
// status codes by the NFS-like front-end.
var (
	ErrNotFound   = errors.New("file not found")
	ErrExists     = errors.New("file exists")
	ErrNotDir     = errors.New("not a directory")
	ErrIsDir      = errors.New("is a directory")
	ErrNotEmpty   = errors.New("directory not empty")
	ErrNoSpace    = errors.New("no space on volume")
	ErrStale      = errors.New("stale file handle")
	ErrNameTooLon = errors.New("name too long")
	ErrInval      = errors.New("invalid argument")
	ErrRofs       = errors.New("read-only file system")
)

// MaxNameLen bounds a single path component, as in FFS.
const MaxNameLen = 255
