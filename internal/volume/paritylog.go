package volume

// The degraded-parity write hole, and the battery-backed record that
// closes it. A degraded column update that read-modify-writes the
// parity folds the dead member's implied content forward through
// parity_old; if a power cut lands some of the column's member writes
// but not others, parity and data disagree and the dead member's
// chunk — reachable only through that parity — is garbage. NVRAM
// survivor replay rewrites the torn data, but RMW against the torn
// parity preserves the corruption (the delta never cancels).
//
// The fix is the paper's own argument applied to parity: battery-
// backed memory. Before issuing a guarded column update the array
// records the column's partial parity pp — algebraically the XOR of
// the column's cells OUTSIDE the written-alive set, dead member's
// chunk included, at the version being preserved. pp is independent
// of which member writes land, so after a crash
//
//	parity := pp XOR (current disk content of the written slots)
//
// restores a parity consistent with whatever landed, preserving the
// dead chunk exactly; the survivor replay then re-delivers the new
// data through a now-consistent column. Every degraded column whose
// parity implies the dead member's chunk is guarded, each case
// building pp from reads its write path performs anyway:
//
//   - RMW (dead slot unwritten): pp = parity_old XOR the old content
//     of the written slots — the dead chunk rides at its OLD value.
//   - Reconstruct-write / full-column (dead slot written): the dead
//     slot's new frame reaches the media only as what the parity
//     implies, so pp = that frame XOR the unwritten cells' content —
//     the dead chunk rides at its NEW value, the only copy there is.
//
// A column whose parity member is the dead one carries no redundancy
// to protect, and healthy columns need no record: nothing is
// reconstructed from them, and a scrub re-syncs parity from data.

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/sched"
)

// ParitySlot names one written data cell of a guarded column.
type ParitySlot struct {
	Member int
	Local  core.BlockNo
}

// ParityRecord is one battery-backed partial-parity record: an
// in-flight degraded column update whose parity must be recomputable
// whatever subset of its member writes reached the media.
type ParityRecord struct {
	File    core.FileID
	Stripe  int64 // parity stripe index
	Offset  int64 // block offset within the chunk
	PMember int
	PLocal  core.BlockNo
	Slots   []ParitySlot // the written (alive) data cells
	PP      []byte       // XOR of the column's cells outside Slots, at their preserved version
}

// pplKey identifies a column: one record per column may be pending.
type pplKey struct {
	file core.FileID
	s, o int64
}

// pentry is one filed record plus its retirement state. Issuing a
// column's fan does NOT make it safe to drop the record: log-
// structured members commit independently (a segment fill on one, not
// the other), so after a cut one member may serve the update while
// its column peer rolls back. The record stays pending until a whole-
// array write barrier that STARTED after the fan completed — only
// then has every member durably committed the column, and parity and
// data are known to agree on the media.
type pentry struct {
	rec      *ParityRecord
	inflight int    // fans currently updating the column
	armed    bool   // some fan fully issued since the record was filed
	armedSeq uint64 // parityLog.seq at the latest arming
}

// parityLog is the array's battery-backed record set. A plain mutex
// (not a kernel one): the crash harness snapshots the records after
// the kernel has stopped, the way it dumps NVRAM survivors.
type parityLog struct {
	mu   sync.Mutex
	seq  uint64 // barrier-start counter, orders armings against barriers
	recs map[pplKey]*pentry
}

// recordParity files rec for its column. An unarmed existing record
// marks a failed (possibly torn) earlier attempt: its pp — computed
// against pre-tear content — is the one that preserves the dead
// chunk, so a retry keeps it. An armed record's fan fully issued, and
// rec's pp was read from the column that fan left behind: rec
// supersedes it.
func (a *Array) recordParity(rec *ParityRecord) {
	a.ppl.mu.Lock()
	if a.ppl.recs == nil {
		a.ppl.recs = make(map[pplKey]*pentry)
	}
	key := pplKey{rec.File, rec.Stripe, rec.Offset}
	e := a.ppl.recs[key]
	if e == nil || (e.armed && e.inflight == 0) {
		a.ppl.recs[key] = &pentry{rec: rec, inflight: 1}
	} else {
		e.inflight++
	}
	a.ppl.mu.Unlock()
}

// armParity marks the columns' fans fully issued. The records remain
// pending — the members have the writes but may not have committed
// them — and retire at the end of the next whole-array barrier.
func (a *Array) armParity(keys []pplKey) {
	if len(keys) == 0 {
		return
	}
	a.ppl.mu.Lock()
	for _, k := range keys {
		if e := a.ppl.recs[k]; e != nil {
			e.inflight--
			e.armed = true
			e.armedSeq = a.ppl.seq
		}
	}
	a.ppl.mu.Unlock()
}

// disarmParity backs out a failed fan's in-flight count without
// arming: the column may be torn on the media, so its record stays
// pending until a successful retry (or crash recovery's ReplayParity)
// makes the column consistent again.
func (a *Array) disarmParity(keys []pplKey) {
	if len(keys) == 0 {
		return
	}
	a.ppl.mu.Lock()
	for _, k := range keys {
		if e := a.ppl.recs[k]; e != nil {
			e.inflight--
		}
	}
	a.ppl.mu.Unlock()
}

// parityBarrierStart opens a barrier window: records armed before
// this point cover writes the member barriers about to run will
// commit.
func (a *Array) parityBarrierStart() uint64 {
	a.ppl.mu.Lock()
	a.ppl.seq++
	s := a.ppl.seq
	a.ppl.mu.Unlock()
	return s
}

// parityBarrierDone retires records whose fan completed before the
// barrier began: every member has now committed those column
// updates, so parity and data agree on the media and the guard has
// nothing left to preserve. Records armed mid-barrier (or with a fan
// still in flight) wait for the next one.
func (a *Array) parityBarrierDone(s uint64) {
	a.ppl.mu.Lock()
	for k, e := range a.ppl.recs {
		if e.armed && e.inflight == 0 && e.armedSeq < s {
			delete(a.ppl.recs, k)
		}
	}
	a.ppl.mu.Unlock()
}

// PendingParity snapshots the outstanding partial-parity records —
// the battery-backed state a crash harness carries across the power
// cut next to the cache's survivors. Deterministic order.
func (a *Array) PendingParity() []ParityRecord {
	a.ppl.mu.Lock()
	defer a.ppl.mu.Unlock()
	out := make([]ParityRecord, 0, len(a.ppl.recs))
	for _, e := range a.ppl.recs {
		cp := *e.rec
		cp.Slots = append([]ParitySlot(nil), e.rec.Slots...)
		cp.PP = append([]byte(nil), e.rec.PP...)
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		if out[i].Stripe != out[j].Stripe {
			return out[i].Stripe < out[j].Stripe
		}
		return out[i].Offset < out[j].Offset
	})
	return out
}

// ReplayParity re-establishes every recorded column's parity on a
// recovered array: parity := pp XOR the current media content of the
// record's written slots. Idempotent — on a column whose update fully
// landed it recomputes the same (correct) parity. Run it after the
// recovery mount and before the NVRAM survivor replay, so the replay
// RMWs against consistent parity. Records for files freed before the
// crash are skipped.
func (a *Array) ReplayParity(t sched.Task, recs []ParityRecord) (applied int, err error) {
	if len(recs) == 0 {
		return 0, nil
	}
	if !a.pl.parity() {
		return 0, fmt.Errorf("volume %s: parity records on placement %s", a.name, a.cfg.Placement)
	}
	scratch := blockVec()
	for _, rec := range recs {
		if _, err := a.GetInode(t, rec.File); err == core.ErrNotFound {
			continue
		} else if err != nil {
			return applied, err
		}
		af := a.lookup(t, rec.File)
		if af == nil {
			continue
		}
		if err := a.replayColumn(t, af, rec, scratch); err != nil {
			return applied, err
		}
		applied++
	}
	return applied, nil
}

func (a *Array) replayColumn(t sched.Task, af *afile, rec ParityRecord, scratch [][]byte) error {
	af.mu.Lock(t)
	defer af.mu.Unlock(t)
	if !a.writeAlive(rec.PMember) {
		return fmt.Errorf("volume %s: parity record for inode %d needs dead member %d", a.name, af.id, rec.PMember)
	}
	parity := append([]byte(nil), rec.PP...)
	for _, sl := range rec.Slots {
		if !a.writeAlive(sl.Member) {
			return fmt.Errorf("volume %s: parity record for inode %d reads dead member %d", a.name, af.id, sl.Member)
		}
		// Holes (a torn shadow growth) read back as zeros, which is
		// exactly the cell's media content.
		if err := a.readCell(t, af, cell{member: sl.Member, local: sl.Local}, scratch); err != nil {
			return err
		}
		xorInto(parity, scratch[0])
	}
	if err := a.writeMember(t, af, rec.PMember, []layout.BlockWrite{
		{Blk: rec.PLocal, Data: parity, Size: core.BlockSize},
	}); err != nil {
		return err
	}
	return a.sub(rec.PMember).UpdateInode(t, af.shadows[rec.PMember])
}
