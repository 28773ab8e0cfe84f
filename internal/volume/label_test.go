package volume

import (
	"encoding/binary"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/layout"
)

// FuzzDecodeLabel feeds arbitrary label blocks to decodeLabel and the
// mount's geometry checks: each must return an error or a geometry,
// never panic.
func FuzzDecodeLabel(f *testing.F) {
	valid := make([]byte, labelBytes)
	le := binary.LittleEndian
	le.PutUint32(valid[0:], labelMagic)
	le.PutUint32(valid[4:], labelVersion)
	le.PutUint32(valid[8:], 3)
	le.PutUint32(valid[12:], uint32(slices.Index(placementCodes, PlacementParity)))
	le.PutUint32(valid[16:], 8)
	le.PutUint32(valid[20:], 1)
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:8])
	a := &Array{name: "arr", subs: make([]layout.Layout, 3), cfg: Config{Placement: PlacementParity, StripeBlocks: 8}}
	f.Fuzz(func(t *testing.T, data []byte) {
		buf := make([]byte, core.BlockSize)
		copy(buf, data)
		g, err := decodeLabel(buf)
		if err != nil {
			return
		}
		for i := range a.subs {
			_ = a.checkLabel(g, i)
		}
		_ = placementName(g.placement)
	})
}
