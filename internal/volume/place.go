package volume

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/core"
)

// The placement is the array's one mapping function, RAIDframe's
// architecture-as-a-mapping: given a file's home member and a global
// block it names the block's cells — (member, local block, role) —
// and its column, the redundancy group of data cells plus at most one
// check cell that the executor (exec.go) reads, writes, reconstructs,
// rebuilds and scrubs as a unit. A cell's content is the XOR of the
// rest of its column. No other file branches on the placement.
//
// File data is cut into w-block chunks, chunk placement rotates with
// the file's home member, and every member packs its share densely
// from local block 0 (nothing else records a shadow's extent, so
// density is what keeps the shadow-size invariant decidable):
//
//   - affinity: one data cell, on home, at the global block number.
//   - striped: chunk c's data cell lives on (home+c) mod n, in local
//     chunk slot c/n.
//   - mirrored: chunk c's data cell on (home+c) mod n and a copy cell
//     on the next member — chained declustering, so a dead member's
//     read load splits over two neighbors. A member holds two chunks
//     per period of n, one of each role, in chunk order. A column is
//     one block: a single data cell whose check cell is a copy.
//   - parity: chunks group into stripes of n-1; stripe s's parity
//     chunk lives on (home+s) mod n and its data chunks rotate behind
//     it (RAID-5). Every stripe places one chunk on every member, so a
//     member's local slot for stripe s is s. A column is one block
//     offset across a stripe: n-1 data cells and their parity cell.

// role is what a cell holds.
type role uint8

const (
	roleData   role = iota
	roleCopy        // the bytes of the column's one data cell
	roleParity      // the XOR of the column's data cells
)

// cell is one block's home on one member.
type cell struct {
	blk    core.BlockNo // global block; a check cell names its column's first
	member int
	local  core.BlockNo
	role   role
}

const (
	kindAffinity = iota
	kindStriped
	kindMirrored
	kindParity
)

// place is the placement: n members, chunks of w blocks.
type place struct {
	name string
	kind int
	n, w int
}

// newPlace validates a placement for n members with chunk width w.
func newPlace(name string, n, w int) (place, error) {
	p := place{name: name, n: n, w: w}
	switch name {
	case "", PlacementAffinity:
		p.name, p.kind = PlacementAffinity, kindAffinity
	case PlacementStriped:
		p.kind = kindStriped
	case PlacementMirrored:
		p.kind = kindMirrored
		if n < 2 {
			return p, fmt.Errorf("mirrored placement needs at least 2 members, have %d", n)
		}
	case PlacementParity:
		p.kind = kindParity
		if n < 3 {
			return p, fmt.Errorf("parity placement needs at least 3 members, have %d", n)
		}
	default:
		return p, fmt.Errorf("unknown placement %q", name)
	}
	if n == 1 {
		p.kind = kindAffinity // a one-member stripe is the member itself
	}
	return p, nil
}

// String is the placement's part of the array name.
func (p place) String() string {
	if p.kind == kindAffinity {
		return p.name
	}
	return fmt.Sprintf("%s:%d", p.name, p.w)
}

// owned reports whether the array owns the global inode and shadows
// carry the per-member block maps; under affinity the global inode is
// the home member's own.
func (p place) owned() bool { return p.kind != kindAffinity }

// redundant reports whether columns carry a check cell, so the array
// survives a member's death.
func (p place) redundant() bool { return p.kind >= kindMirrored }

// parity reports whether check cells are parity cells, which partial-
// parity records guard.
func (p place) parity() bool { return p.kind == kindParity }

// carriers is how many members, from home on, carry a file's metadata
// and global size: the home, and its successor too when the file must
// survive the loss of either.
func (p place) carriers() int {
	if p.redundant() {
		return 2
	}
	return 1
}

// carrier is the file's i-th carrier member.
func (p place) carrier(home, i int) int { return (home + i) % p.n }

func (p place) isCarrier(home, s int) bool { return (s-home+p.n)%p.n < p.carriers() }

// rot is the member r places after home.
func (p place) rot(home int, r int64) int { return (home + int(r%int64(p.n))) % p.n }

// dataCell is blk's data cell.
func (p place) dataCell(home int, blk core.BlockNo) cell {
	w, n := int64(p.w), int64(p.n)
	c, o := int64(blk)/w, int64(blk)%w
	switch p.kind {
	case kindStriped:
		return cell{blk, p.rot(home, c), core.BlockNo(c/n*w + o), roleData}
	case kindMirrored:
		return cell{blk, p.rot(home, c), core.BlockNo(mirrorSlot(c, n, false)*w + o), roleData}
	case kindParity:
		s, j := c/(n-1), c%(n-1)
		return cell{blk, p.rot(home, s+1+j), core.BlockNo(s*w + o), roleData}
	}
	return cell{blk, home, blk, roleData}
}

// checkCell is the check cell of blk's column, if the placement has
// one.
func (p place) checkCell(home int, blk core.BlockNo) (cell, bool) {
	w, n := int64(p.w), int64(p.n)
	c, o := int64(blk)/w, int64(blk)%w
	switch p.kind {
	case kindMirrored:
		return cell{blk, p.rot(home, c+1), core.BlockNo(mirrorSlot(c, n, true)*w + o), roleCopy}, true
	case kindParity:
		s := c / (n - 1)
		return cell{core.BlockNo(s*(n-1)*w + o), p.rot(home, s), core.BlockNo(s*w + o), roleParity}, true
	}
	return cell{}, false
}

// mirrorSlot is chunk c's local chunk slot on the member holding its
// data cell (or, cp, its copy cell): the member's two chunks of a
// period land in chunk order, so the slot is 2*(c/n) plus one when
// the role's residue is the larger of the member's two residues.
func mirrorSlot(c, n int64, cp bool) int64 {
	slot := 2 * (c / n)
	if (!cp && c%n != 0) || (cp && c%n == n-1) {
		slot++
	}
	return slot
}

// column appends the data cells of blk's column that fall inside a
// file of total blocks to dst, in column order.
func (p place) column(home int, blk core.BlockNo, total int64, dst []cell) []cell {
	first, stride, size := blk, int64(1), int64(1)
	if p.kind == kindParity {
		s, o := p.stripe(blk)
		d := int64(p.n - 1)
		first, stride, size = core.BlockNo(s*d*int64(p.w)+o), int64(p.w), d
	}
	for i := int64(0); i < size; i++ {
		if b := first + core.BlockNo(i*stride); int64(b) < total {
			dst = append(dst, p.dataCell(home, b))
		}
	}
	return dst
}

// rest appends the rest of cell c's column to dst — the cells whose
// XOR is c's content: the check cell first (unless it is c), then the
// column's data cells inside a file of total blocks, c excluded.
func (p place) rest(home int, c cell, total int64, dst []cell) []cell {
	if chk, ok := p.checkCell(home, c.blk); ok && c.role == roleData {
		dst = append(dst, chk)
	}
	from := len(dst)
	dst = p.column(home, c.blk, total, dst)
	if i := slices.Index(dst[from:], c); i >= 0 {
		dst = slices.Delete(dst, from+i, from+i+1)
	}
	return dst
}

// stripe is a parity column's key: blk's stripe and chunk offset.
func (p place) stripe(blk core.BlockNo) (s, o int64) {
	return int64(blk) / int64(p.w) / int64(p.n-1), int64(blk) % int64(p.w)
}

// clamp caps a run read from blk at its chunk, inside which global and
// local blocks advance together (affinity has no chunks).
func (p place) clamp(blk core.BlockNo, n int) int {
	if rem := p.w - int(int64(blk)%int64(p.w)); p.kind != kindAffinity && n > rem {
		return rem
	}
	return n
}

// localBlocks is how many local blocks member sub holds of a file of
// total global blocks — its dense share length, check cells included.
func (p place) localBlocks(home, sub int, total int64) int64 {
	if total <= 0 {
		return 0
	}
	w, n := int64(p.w), int64(p.n)
	C := (total + w - 1) / w // chunks
	clen := func(c int64) int64 { return min(w, total-c*w) }
	r := int64((sub - home + p.n) % p.n)
	last := func(r int64) int64 { // sub's last chunk of residue r, -1 none
		if r > C-1 {
			return -1
		}
		return C - 1 - (C-1-r)%n
	}
	switch p.kind {
	case kindAffinity:
		if sub == home {
			return total
		}
		return 0
	case kindStriped:
		if c := last(r); c >= 0 {
			return c/n*w + clen(c)
		}
		return 0
	case kindMirrored:
		var ext int64
		if c := last(r); c >= 0 {
			ext = mirrorSlot(c, n, false)*w + clen(c)
		}
		if c := last((r + n - 1) % n); c >= 0 {
			ext = max(ext, mirrorSlot(c, n, true)*w+clen(c))
		}
		return ext
	}
	// Parity: the share ends in the last stripe, with its parity chunk
	// (as long as the stripe's first chunk) or its data chunk; without
	// either, with the full stripe before.
	d := n - 1
	s := (C - 1) / d
	if r == s%n {
		return s*w + clen(s*d)
	}
	if c := s*d + (r-s%n-1+2*n)%n; c < C {
		return s*w + clen(c)
	}
	return s * w
}

// sweep lists member's cells of a file of total blocks in the order
// rebuild rewrites them: data and copy cells in ascending local order,
// then parity cells in ascending local order. A parity cell is the
// XOR of its whole column, so it is recomputed after the member's
// data cells; a copy is just another cell of its chunk, so a mirror's
// share goes in one ascending pass.
func (p place) sweep(home, member int, total int64) []cell {
	var out []cell
	for b := core.BlockNo(0); int64(b) < total; b++ {
		if c := p.dataCell(home, b); c.member == member {
			out = append(out, c)
		}
		if c, ok := p.checkCell(home, b); ok && c.blk == b && c.member == member {
			out = append(out, c)
		}
	}
	slices.SortFunc(out, func(x, y cell) int {
		if px, py := x.role == roleParity, y.role == roleParity; px != py {
			if px {
				return 1
			}
			return -1
		}
		return cmp.Compare(x.local, y.local)
	})
	return out
}
