package volume

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/sched"
)

// The array label is one block on every member, held by the reserved
// label file: magic, version, the geometry the array was built with,
// and the member's own index. A real array validates all of them at
// mount, so reopening a 4-wide striped array as, say, a 2-wide
// affinity one — or mounting members in a shuffled order — fails
// loudly instead of silently serving the wrong blocks. Array-wide
// recovery cross-checks the members' labels against each other.
const (
	labelMagic   = 0x50564131 // "PVA1"
	labelVersion = 2
	labelBytes   = 28
)

// ErrGeometry marks a member set whose labels do not describe the
// array being mounted: a width, placement or chunk mismatch, a member
// in the wrong slot, or a member from another set. Offline tools
// report it as an inconsistency, not as unreadable storage.
var ErrGeometry = errors.New("geometry mismatch")

// placementCodes maps a label's placement code to the placement.
var placementCodes = []string{PlacementAffinity, PlacementStriped, PlacementMirrored, PlacementParity}

func (a *Array) placementCode() uint32 {
	return uint32(slices.Index(placementCodes, a.cfg.Placement))
}

// widthCoded reports whether a placement records a meaningful chunk
// width in the label (everything except affinity, which has none).
func widthCoded(code uint32) bool { return code != 0 }

// writeLabel persists the geometry label on every member, each copy
// carrying the member's own index.
func (a *Array) writeLabel(t sched.Task) error {
	for i := range a.subs {
		if !a.writeAlive(i) || a.labels[i] == nil {
			continue // dead member: rebuild relabels its replacement
		}
		if err := a.writeMemberLabel(t, i); err != nil {
			return err
		}
	}
	return nil
}

// writeMemberLabel writes one member's copy of the geometry label
// (carrying the member's own index).
func (a *Array) writeMemberLabel(t sched.Task, i int) error {
	sub := a.sub(i)
	buf := make([]byte, core.BlockSize)
	le := binary.LittleEndian
	le.PutUint32(buf[0:], labelMagic)
	le.PutUint32(buf[4:], labelVersion)
	le.PutUint32(buf[8:], uint32(len(a.subs)))
	le.PutUint32(buf[12:], a.placementCode())
	le.PutUint32(buf[16:], uint32(a.cfg.StripeBlocks))
	le.PutUint32(buf[20:], uint32(i))
	// Lineage rides in the label's reserved tail (version unchanged:
	// older labels read back as 0 = "original member"): a promoted
	// spare records which spare slot it came from, so fsck can report
	// the member's provenance offline.
	le.PutUint32(buf[24:], uint32(a.originOf(i)+1))
	if err := sub.Truncate(t, a.labels[i], labelBytes); err != nil {
		return fmt.Errorf("volume %s: size label on member %d: %w", a.name, i, err)
	}
	if err := sub.WriteBlocks(t, a.labels[i], []layout.BlockWrite{
		{Blk: 0, Data: buf, Size: labelBytes},
	}); err != nil {
		return fmt.Errorf("volume %s: write label on member %d: %w", a.name, i, err)
	}
	if err := sub.UpdateInode(t, a.labels[i]); err != nil {
		return fmt.Errorf("volume %s: label inode on member %d: %w", a.name, i, err)
	}
	return nil
}

// readLabel loads and validates every member's label after a
// real-mode mount. A missing label on member 0 means a fresh array
// (labels appear with the first sync); a present label must match
// the configured geometry on every member, and each member must
// carry its own index — a shuffled image set fails here.
func (a *Array) readLabel(t sched.Task) error {
	labels := make([]*layout.Inode, len(a.subs))
	empty := 0
	var want *labelGeom
	firstAlive := -1
	for i := range a.subs {
		if !a.writeAlive(i) {
			continue // dead member: no image to validate
		}
		if firstAlive < 0 {
			firstAlive = i
		}
		sub := a.sub(i)
		ino, err := sub.GetInode(t, labelFileID)
		if err == core.ErrNotFound {
			if i == firstAlive {
				return nil // fresh array, labels not yet written
			}
			return fmt.Errorf("volume %s: %w: member %d carries no label file (member %d does)", a.name, ErrGeometry, i, firstAlive)
		}
		if err != nil {
			return fmt.Errorf("volume %s: label inode on member %d: %w", a.name, i, err)
		}
		buf := make([]byte, core.BlockSize)
		if _, err := sub.ReadRunVec(t, ino, 0, 1, [][]byte{buf}); err != nil {
			return fmt.Errorf("volume %s: read label on member %d: %w", a.name, i, err)
		}
		g, err := decodeLabel(buf)
		if err != nil {
			if ino.Size == 0 {
				// Lockstep allocated the reserved inode but the first
				// sync never wrote its contents (a crash beat it).
				// Adopt the inode so the next sync labels the array —
				// leaving it unlabeled would disable geometry
				// validation forever.
				labels[i] = ino
				empty++
				continue
			}
			return fmt.Errorf("volume %s: %w: member %d carries no array label: %w", a.name, ErrGeometry, i, err)
		}
		if err := a.checkLabel(g, i); err != nil {
			return err
		}
		if want == nil {
			want = &g
		} else if g.nsubs != want.nsubs || g.placement != want.placement || g.stripe != want.stripe {
			return fmt.Errorf("volume %s: %w: member %d label disagrees with member %d", a.name, ErrGeometry, i, firstAlive)
		}
		a.setOrigin(i, g.origin)
		labels[i] = ino
	}
	if empty > 0 {
		// A crash beat the label write on some (or all) members. Every
		// member that does carry a label already matched the
		// configured geometry above, so rewriting the empty ones with
		// that geometry is safe: adopt the inodes and leave labelDone
		// false so the next Sync (re)labels every member.
		a.labels = labels
		return nil
	}
	a.labels = labels
	a.labelDone = true
	return nil
}

// checkLabel validates the label geometry g found in member slot i
// against the configured geometry.
func (a *Array) checkLabel(g labelGeom, i int) error {
	if g.nsubs != len(a.subs) {
		return fmt.Errorf("volume %s: %w: image is a %d-volume array, mounted with %d", a.name, ErrGeometry, g.nsubs, len(a.subs))
	}
	if g.placement != a.placementCode() {
		return fmt.Errorf("volume %s: %w: image placement %s, mounted with %s",
			a.name, ErrGeometry, placementName(g.placement), a.cfg.Placement)
	}
	if widthCoded(g.placement) && g.stripe != a.cfg.StripeBlocks {
		return fmt.Errorf("volume %s: %w: image stripe width %d blocks, mounted with %d", a.name, ErrGeometry, g.stripe, a.cfg.StripeBlocks)
	}
	if g.member != i {
		return fmt.Errorf("volume %s: %w: image in slot %d labels itself member %d (image set shuffled?)",
			a.name, ErrGeometry, i, g.member)
	}
	return nil
}

// labelGeom is the geometry a label records.
type labelGeom struct {
	nsubs     int
	placement uint32
	stripe    int
	member    int
	origin    int // spare slot the member was promoted from, -1 original
}

// decodeLabel parses a label block.
func decodeLabel(buf []byte) (labelGeom, error) {
	le := binary.LittleEndian
	if m := le.Uint32(buf[0:]); m != labelMagic {
		return labelGeom{}, fmt.Errorf("bad label magic %#x", m)
	}
	if v := le.Uint32(buf[4:]); v != labelVersion {
		return labelGeom{}, fmt.Errorf("label version %d, want %d", v, labelVersion)
	}
	return labelGeom{
		nsubs:     int(le.Uint32(buf[8:])),
		placement: le.Uint32(buf[12:]),
		stripe:    int(le.Uint32(buf[16:])),
		member:    int(le.Uint32(buf[20:])),
		origin:    int(le.Uint32(buf[24:])) - 1,
	}, nil
}

func placementName(code uint32) string {
	if code < uint32(len(placementCodes)) {
		return placementCodes[code]
	}
	return PlacementAffinity
}

// LabelInfo is the geometry an on-image label records, as exposed to
// offline tools.
type LabelInfo struct {
	Volumes      int
	Placement    string
	StripeBlocks int
	Member       int
	// Origin is the spare slot this member was promoted from by a
	// self-heal rebuild, -1 for an original member.
	Origin int
}

// ReadLabel inspects an already-mounted sub-layout for an array
// label and returns the recorded geometry; found is false when the
// reserved inode is absent or carries no label. fsck uses it to
// cross-check a multi-volume image set and report member lineage.
func ReadLabel(t sched.Task, sub layout.Layout) (info LabelInfo, found bool, err error) {
	ino, err := sub.GetInode(t, labelFileID)
	if err == core.ErrNotFound {
		return LabelInfo{}, false, nil
	}
	if err != nil {
		return LabelInfo{}, false, err
	}
	buf := make([]byte, core.BlockSize)
	if _, err := sub.ReadRunVec(t, ino, 0, 1, [][]byte{buf}); err != nil {
		return LabelInfo{}, false, err
	}
	g, err := decodeLabel(buf)
	if err != nil {
		return LabelInfo{}, false, nil
	}
	return LabelInfo{
		Volumes:      g.nsubs,
		Placement:    placementName(g.placement),
		StripeBlocks: g.stripe,
		Member:       g.member,
		Origin:       g.origin,
	}, true, nil
}
