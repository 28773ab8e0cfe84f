package volume

import (
	"errors"
	"fmt"

	"repro/internal/layout"
	"repro/internal/sched"
)

// The hot-spare pool: idle, pre-constructed member stacks the array
// can promote onto the moment a death is confirmed, without waiting
// for an operator to provision a replacement. A spare is an ordinary
// unformatted layout over its own disk stack (exactly what Rebuild
// expects as a replacement); attaching it costs nothing until a
// promotion consumes it. Promotion is the existing KillMember +
// Rebuild path — the pool only removes the human from the loop:
//
//	confirmed death ──▶ PromoteSpare ──▶ Rebuild(spare) ──▶ healthy
//	                        │
//	                        └─ pool empty / second fault: refused,
//	                           counted, array keeps serving degraded
//
// The pool state lives behind a plain mutex so supervisors and
// metric scrapers read it without kernel involvement.

// ErrNoSpare reports an empty spare pool at promotion time.
var ErrNoSpare = errors.New("spare pool empty")

// AttachSpare adds an idle replacement member stack to the pool. The
// layout must be freshly constructed (unformatted/unmounted), like a
// Rebuild replacement. Returns the spare's pool slot.
func (a *Array) AttachSpare(l layout.Layout) int {
	a.spareMu.Lock()
	defer a.spareMu.Unlock()
	a.spares = append(a.spares, l)
	return len(a.spares) - 1
}

// SpareSlots returns the total number of pool slots ever attached,
// consumed ones included — the static gate for spare telemetry.
func (a *Array) SpareSlots() int {
	a.spareMu.Lock()
	defer a.spareMu.Unlock()
	return len(a.spares)
}

// SpareCount returns the number of idle spares in the pool.
func (a *Array) SpareCount() int {
	a.spareMu.Lock()
	defer a.spareMu.Unlock()
	n := 0
	for _, s := range a.spares {
		if s != nil {
			n++
		}
	}
	return n
}

// SparePromotions returns the number of spares consumed by
// promotions so far.
func (a *Array) SparePromotions() int64 { return a.promotions.Load() }

// SpareRefusals returns the number of promotion attempts refused —
// empty pool, concurrent maintenance, or a second fault — each one a
// loud signal that the array is running degraded without repair.
func (a *Array) SpareRefusals() int64 { return a.spareRefusals.Load() }

// originOf returns member i's lineage: the spare slot it was
// promoted from, -1 for an original member.
func (a *Array) originOf(i int) int {
	a.spareMu.Lock()
	defer a.spareMu.Unlock()
	return int(a.origin[i])
}

func (a *Array) setOrigin(i, origin int) {
	a.spareMu.Lock()
	a.origin[i] = int32(origin)
	a.spareMu.Unlock()
}

// Origins snapshots every member's lineage (see originOf).
func (a *Array) Origins() []int {
	a.spareMu.Lock()
	defer a.spareMu.Unlock()
	out := make([]int, len(a.origin))
	for i, o := range a.origin {
		out[i] = int(o)
	}
	return out
}

// PromoteSpare rebuilds the dead member onto a spare from the pool
// and returns the consumed spare's slot. It refuses cleanly — with
// the refusal counted for telemetry — when there is no dead member,
// the pool is empty, or another maintenance pass holds the gate (a
// second fault during a rebuild lands here: the promotion is refused
// and the array keeps serving degraded). A spare consumed by a
// failed rebuild is not returned to the pool: its contents are
// undefined.
func (a *Array) PromoteSpare(t sched.Task) (int, error) {
	if !a.pl.redundant() {
		return -1, fmt.Errorf("volume %s: promote spare: %w (placement %s)", a.name, ErrDegraded, a.cfg.Placement)
	}
	dead := int(a.deadIdx.Load())
	if dead < 0 {
		return -1, fmt.Errorf("volume %s: promote spare: no dead member", a.name)
	}

	a.spareMu.Lock()
	slot := -1
	var spare layout.Layout
	for i, s := range a.spares {
		if s != nil {
			slot, spare = i, s
			break
		}
	}
	if slot < 0 {
		a.spareMu.Unlock()
		a.spareRefusals.Add(1)
		return -1, fmt.Errorf("volume %s: promote member %d: %w", a.name, dead, ErrNoSpare)
	}
	a.spares[slot] = nil
	a.origin[dead] = int32(slot)
	a.spareMu.Unlock()

	if err := a.Rebuild(t, spare); err != nil {
		a.spareMu.Lock()
		a.origin[dead] = -1
		if errors.Is(err, ErrBusy) {
			// The spare was never touched; put it back.
			a.spares[slot] = spare
		}
		a.spareMu.Unlock()
		a.spareRefusals.Add(1)
		return -1, err
	}
	a.promotions.Add(1)
	return slot, nil
}
