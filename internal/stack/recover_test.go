package stack

import (
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/volume"
)

// The merge rules a recovery's second power cut applies, over
// hand-built batteries: the later survivor wins per block, the later
// intents are renumbered after the earlier ones, and per array and
// parity column the earliest record wins.
func TestMergeBatteries(t *testing.T) {
	surv := func(file core.FileID, blk core.BlockNo, ver byte) cache.Survivor {
		return cache.Survivor{Key: core.BlockKey{Vol: 1, File: file, Blk: blk}, Data: []byte{ver}, Size: 1}
	}
	intent := func(seq uint64, name string) cache.Intent {
		return cache.Intent{Seq: seq, Op: cache.IntentCreate, Vol: 1, Name: name}
	}
	column := func(file core.FileID, stripe int64, pmember int) volume.ParityRecord {
		return volume.ParityRecord{File: file, Stripe: stripe, PMember: pmember}
	}
	bat := func(s []cache.Survivor, i []cache.Intent, p []volume.ParityRecord) *Battery {
		return &Battery{CrashReport: cache.CrashReport{Survivors: s, Intents: i}, Parity: [][]volume.ParityRecord{p}}
	}
	full := bat([]cache.Survivor{surv(2, 0, 1)}, []cache.Intent{intent(3, "a")}, []volume.ParityRecord{column(2, 0, 0)})
	for _, tc := range []struct {
		name               string
		first, later, want *Battery
	}{
		{"survivor overwrite",
			bat([]cache.Survivor{surv(2, 0, 1), surv(2, 1, 1)}, nil, nil),
			bat([]cache.Survivor{surv(2, 1, 2), surv(1, 5, 2)}, nil, nil),
			bat([]cache.Survivor{surv(1, 5, 2), surv(2, 0, 1), surv(2, 1, 2)}, nil, nil)},
		{"intent renumbering",
			bat(nil, []cache.Intent{intent(1, "a"), intent(4, "b")}, nil),
			bat(nil, []cache.Intent{intent(1, "a"), intent(2, "c")}, nil),
			bat(nil, []cache.Intent{intent(1, "a"), intent(4, "b"), intent(5, "a"), intent(6, "c")}, nil)},
		{"first parity record per column",
			bat(nil, nil, []volume.ParityRecord{column(3, 0, 0), column(3, 1, 1)}),
			bat(nil, nil, []volume.ParityRecord{column(3, 1, 2), column(4, 0, 2)}),
			bat(nil, nil, []volume.ParityRecord{column(3, 0, 0), column(3, 1, 1), column(4, 0, 2)})},
		{"nothing new", full, &Battery{}, full},
	} {
		got := MergeBatteries(tc.first, tc.later)
		if g, w := fmt.Sprint(got.Survivors, got.Intents, got.Parity), fmt.Sprint(tc.want.Survivors, tc.want.Intents, tc.want.Parity); g != w {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, g, w)
		}
	}
}
