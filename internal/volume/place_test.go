package volume

import (
	"testing"

	"repro/internal/core"
)

// TestPlanEveryPlacement checks the one placement function over every
// placement × width × home × dead member × column shape. Every file
// length up to four full periods plus a chunk is swept, so the last
// column comes out full, partially filled and one cell long. For each
// plan it checks that:
//
//   - every global block has exactly one data cell;
//   - no two (block, role) pairs share a (member, local) — every
//     member's share is dense, and the closed-form localBlocks equals
//     the highest local block its cells use, plus one;
//   - each redundant column holds exactly one check cell, on a member
//     none of its data cells use (and the data cells' members differ);
//   - a degraded read plan never touches the dead member, and the rest
//     of a column plus the cell itself is the whole column;
//   - the rebuild sweep covers exactly the dead member's cells, data
//     and copy cells in ascending local order, then parity cells in
//     ascending local order.
func TestPlanEveryPlacement(t *testing.T) {
	shapes := map[string]map[int64]bool{} // placement → tail column sizes seen
	for _, name := range []string{PlacementAffinity, PlacementStriped, PlacementMirrored, PlacementParity} {
		shapes[name] = map[int64]bool{}
		for n := 1; n <= 5; n++ {
			for _, w := range []int{1, 2, 3, 5, 8} {
				p, err := newPlace(name, n, w)
				if err != nil {
					continue // too narrow for the placement
				}
				period := int64(n * w)
				for home := 0; home < n; home++ {
					for total := int64(0); total <= 4*period+int64(w)+3; total++ {
						if total > 0 {
							tail := p.column(home, core.BlockNo(total-1), total, nil)
							shapes[name][int64(len(tail))] = true
						}
						checkPlan(t, p, home, total)
					}
				}
			}
		}
	}
	// The parity sweep saw every tail shape: one cell, partial, full.
	for _, size := range []int64{1, 2, 3, 4} {
		if !shapes[PlacementParity][size] {
			t.Fatalf("parity sweep never ended in a %d-cell column", size)
		}
	}
}

func checkPlan(t *testing.T, p place, home int, total int64) {
	t.Helper()
	at := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s n=%d w=%d home=%d total=%d: "+format,
			append([]any{p.name, p.n, p.w, home, total}, args...)...)
	}
	// Every cell, enumerated block by block: each block's data cell,
	// each column's check cell once (at the column's first block).
	type slot struct {
		member int
		local  core.BlockNo
	}
	owner := map[slot]cell{}
	perMember := make([][]cell, p.n)
	add := func(c cell) {
		if c.member < 0 || c.member >= p.n || c.local < 0 {
			at("cell %+v out of range", c)
		}
		if prev, dup := owner[slot{c.member, c.local}]; dup {
			at("cells %+v and %+v share member %d local %d", prev, c, c.member, c.local)
		}
		owner[slot{c.member, c.local}] = c
		perMember[c.member] = append(perMember[c.member], c)
	}
	for b := core.BlockNo(0); int64(b) < total; b++ {
		d := p.dataCell(home, b)
		if d.blk != b || d.role != roleData {
			at("block %d: data cell %+v", b, d)
		}
		add(d)
		chk, ok := p.checkCell(home, b)
		if ok != p.redundant() {
			at("block %d: check cell present=%v on a placement with redundancy=%v", b, ok, p.redundant())
		}
		if !ok || chk.blk != b {
			continue
		}
		add(chk)
		data := p.column(home, b, total, nil)
		if len(data) == 0 || data[0].blk != b {
			at("column of first block %d: data cells %+v", b, data)
		}
		used := map[int]bool{chk.member: true}
		for _, c := range data {
			if used[c.member] {
				at("column of block %d reuses member %d (check on %d)", b, c.member, chk.member)
			}
			used[c.member] = true
			if other, _ := p.checkCell(home, c.blk); other != chk {
				at("block %d's check cell %+v, its column's is %+v", c.blk, other, chk)
			}
		}
	}
	// Dense shares, and localBlocks agrees with the cells.
	for m, cells := range perMember {
		want := int64(len(cells))
		if got := p.localBlocks(home, m, total); got != want {
			at("member %d: localBlocks %d, cells use %d local blocks", m, got, want)
		}
		for _, c := range cells {
			if int64(c.local) >= want {
				at("member %d: share not dense (local %d of %d)", m, c.local, want)
			}
		}
	}
	deads := []int{-1}
	if p.redundant() {
		for m := 0; m < p.n; m++ {
			deads = append(deads, m)
		}
	}
	for _, dead := range deads {
		for b := core.BlockNo(0); int64(b) < total; b++ {
			plan := []cell{p.dataCell(home, b)}
			if plan[0].member == dead {
				plan = p.rest(home, plan[0], total, nil)
				if want := len(p.column(home, b, total, nil)); len(plan) != want {
					at("dead %d block %d: reconstruction reads %d cells, want the %d others of its column", dead, b, len(plan), want)
				}
			}
			for _, c := range plan {
				if c.member == dead {
					at("dead %d block %d: read plan touches the dead member (%+v)", dead, b, c)
				}
			}
		}
		if dead < 0 {
			continue
		}
		sweep := p.sweep(home, dead, total)
		if len(sweep) != len(perMember[dead]) {
			at("dead %d: rebuild sweeps %d cells, member holds %d", dead, len(sweep), len(perMember[dead]))
		}
		for i, c := range sweep {
			if owner[slot{c.member, c.local}] != c || c.member != dead {
				at("dead %d: rebuild sweep cell %+v is not the member's", dead, c)
			}
			if i == 0 {
				continue
			}
			prev := sweep[i-1]
			switch prevParity, parity := prev.role == roleParity, c.role == roleParity; {
			case prevParity && !parity:
				at("dead %d: rebuild sweep has a data or copy cell after a parity cell at %d", dead, i)
			case prevParity == parity && prev.local >= c.local:
				at("dead %d: rebuild sweep not in ascending local order within a role at %d", dead, i)
			}
		}
	}
}

// TestStripeGeometry checks the striped mapping exhaustively over
// small arrays: every block of a file lands on exactly one member,
// local block numbers are dense per member, and localBlocks reports
// exactly the share dataCell hands out.
func TestStripeGeometry(t *testing.T) {
	for n := 1; n <= 5; n++ {
		for w := 1; w <= 9; w += 4 {
			p, err := newPlace(PlacementStriped, n, w)
			if err != nil {
				t.Fatal(err)
			}
			for home := 0; home < n; home++ {
				for total := int64(0); total <= int64(3*n*w+3); total++ {
					counts := make([]int64, n)
					maxLocal := make([]int64, n)
					for i := range maxLocal {
						maxLocal[i] = -1
					}
					for b := int64(0); b < total; b++ {
						c := p.dataCell(home, core.BlockNo(b))
						if c.member < 0 || c.member >= n {
							t.Fatalf("n=%d w=%d home=%d blk=%d: member %d out of range", n, w, home, b, c.member)
						}
						counts[c.member]++
						maxLocal[c.member] = max(maxLocal[c.member], int64(c.local))
					}
					var sum int64
					for s := 0; s < n; s++ {
						lk := p.localBlocks(home, s, total)
						sum += lk
						if lk != counts[s] {
							t.Fatalf("n=%d w=%d home=%d total=%d member=%d: localBlocks=%d, dataCell hands out %d",
								n, w, home, total, s, lk, counts[s])
						}
						if maxLocal[s]+1 != lk {
							t.Fatalf("n=%d w=%d home=%d total=%d member=%d: share not dense: max local %d, count %d",
								n, w, home, total, s, maxLocal[s], lk)
						}
					}
					if sum != total {
						t.Fatalf("n=%d w=%d home=%d total=%d: shares sum to %d", n, w, home, total, sum)
					}
				}
			}
		}
	}
}

// TestStripeNoCollision verifies distinct global blocks never map to
// the same (member, local) pair.
func TestStripeNoCollision(t *testing.T) {
	p, err := newPlace(PlacementStriped, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[2]int64]int64{}
	for b := int64(0); b < 500; b++ {
		c := p.dataCell(1, core.BlockNo(b))
		key := [2]int64{int64(c.member), int64(c.local)}
		if prev, dup := seen[key]; dup {
			t.Fatalf("blocks %d and %d both map to member %d local %d", prev, b, c.member, c.local)
		}
		seen[key] = b
	}
}

// TestRedundantGeometryInvariants brute-forces the mirrored and
// parity mappings: no two cells share a (member, local block), a copy
// never sits on its data cell's member, parity chunks occupy exactly
// the stripe slots the RAID-5 layout gives them, every member's share
// is densely packed from local block 0, and localBlocks agrees exactly
// with the brute-forced extent.
func TestRedundantGeometryInvariants(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5} {
		for _, w := range []int{1, 2, 3, 8} {
			for _, name := range []string{PlacementMirrored, PlacementParity} {
				parity := name == PlacementParity
				if parity && n < 3 {
					continue
				}
				p, err := newPlace(name, n, w)
				if err != nil {
					t.Fatal(err)
				}
				for home := 0; home < n; home++ {
					for total := int64(1); total <= int64(4*n*w+3); total++ {
						used := make([]map[int64]bool, n)
						for i := range used {
							used[i] = map[int64]bool{}
						}
						occupy := func(c cell, what string) {
							if used[c.member][int64(c.local)] {
								t.Fatalf("n=%d w=%d %s home=%d total=%d: member %d local %d double-booked (%s)",
									n, w, name, home, total, c.member, c.local, what)
							}
							used[c.member][int64(c.local)] = true
						}
						for b := int64(0); b < total; b++ {
							d := p.dataCell(home, core.BlockNo(b))
							occupy(d, "data")
							chk, _ := p.checkCell(home, core.BlockNo(b))
							if !parity {
								if chk.role != roleCopy || chk.member == d.member {
									t.Fatalf("block %d: copy %+v against data %+v", b, chk, d)
								}
								occupy(chk, "copy")
							}
						}
						if parity {
							// Parity chunks: stripe s places blocks
							// [s*w, s*w+chunkLen) on the parity member.
							d := int64(n - 1)
							C := (total + int64(w) - 1) / int64(w)
							S := (C + d - 1) / d
							for s := int64(0); s < S; s++ {
								pl := min(total-s*d*int64(w), int64(w))
								for o := int64(0); o < pl; o++ {
									chk, _ := p.checkCell(home, core.BlockNo(s*d*int64(w)+o))
									if chk.role != roleParity || int64(chk.local) != s*int64(w)+o || chk.member != p.rot(home, s) {
										t.Fatalf("stripe %d offset %d: parity cell %+v", s, o, chk)
									}
									occupy(chk, "parity")
								}
							}
						}
						for m := 0; m < n; m++ {
							want := p.localBlocks(home, m, total)
							if int64(len(used[m])) != want {
								t.Fatalf("n=%d w=%d %s home=%d total=%d member %d: %d local blocks used, localBlocks says %d",
									n, w, name, home, total, m, len(used[m]), want)
							}
							for lb := int64(0); lb < want; lb++ {
								if !used[m][lb] {
									t.Fatalf("n=%d w=%d %s home=%d total=%d member %d: hole at local %d (share not dense)",
										n, w, name, home, total, m, lb)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestParityColumnPeers checks the column arithmetic: a block, its
// peers and the parity cell form exactly one column, all on distinct
// members.
func TestParityColumnPeers(t *testing.T) {
	p, err := newPlace(PlacementParity, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	total := int64(40)
	for home := 0; home < p.n; home++ {
		for b := int64(0); b < total; b++ {
			d := p.dataCell(home, core.BlockNo(b))
			chk, _ := p.checkCell(home, core.BlockNo(b))
			if d.member == chk.member {
				t.Fatalf("data and parity share member %d", d.member)
			}
			rest := p.rest(home, d, total, nil)
			if len(rest) == 0 || rest[0] != chk {
				t.Fatalf("block %d: rest of column %+v does not lead with parity %+v", b, rest, chk)
			}
			if want := len(p.column(home, d.blk, total, nil)); len(rest) != want {
				t.Fatalf("block %d: %d cells besides the block, column holds %d data cells", b, len(rest), want)
			}
			members := map[int]bool{d.member: true, chk.member: true}
			for _, peer := range rest[1:] {
				if members[peer.member] {
					t.Fatalf("column of block %d revisits member %d", b, peer.member)
				}
				members[peer.member] = true
			}
		}
	}
}
