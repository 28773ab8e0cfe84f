package cache

import (
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
)

// This file models what a power cut does to the cache — the heart of
// the paper's reliability argument. Under the write-delay policy the
// cache lives in volatile DRAM and every dirty block dies with the
// power; under the UPS and NVRAM policies the dirty data's residence
// is battery-backed, so the same blocks survive and can be replayed
// into the storage layout at remount.

// Survivor is one dirty block captured at a power cut.
type Survivor struct {
	Key core.BlockKey
	// Data is a copy of the block contents (nil in simulated caches,
	// which carry no data).
	Data []byte
	// Size is the count of valid bytes.
	Size int
	// DirtySince is when the block last went dirty.
	DirtySince sched.Time
}

// CrashReport is the cache's state at a simulated power cut.
type CrashReport struct {
	// Policy names the flush policy that was in effect.
	Policy string
	// Persistent reports whether the policy's dirty data survives.
	Persistent bool
	// Survivors holds every dirty block the persistence domain
	// preserved, in deterministic (vol, file, block) order. Empty
	// under a volatile policy.
	Survivors []Survivor
	// LostBlocks counts dirty blocks lost with the volatile memory
	// (0 under a persistent policy).
	LostBlocks int
	// LossWindow is the age of the oldest lost dirty block — how far
	// back acknowledged writes may be missing after recovery. The
	// write-delay policy bounds it by MaxAge + ScanInterval.
	LossWindow time.Duration
	// Intents holds the unretired metadata intents the persistence
	// domain preserved, in Seq order (nil without an intent log or
	// under a volatile policy — the ring lives in the same domain as
	// the dirty blocks and dies with them).
	Intents []Intent
	// LostIntents counts unretired intents lost with the volatile
	// memory: acknowledged namespace operations recovery cannot
	// restore.
	LostIntents int
	// IntentLossWindow is the age of the oldest lost intent.
	IntentLossWindow time.Duration
}

// Crash captures the power-cut state of the cache: every dirty block
// (including blocks mid-flush, whose in-flight I/O died with the
// power) is either returned for replay (persistent policies) or
// counted lost (volatile ones). The cache itself is left untouched —
// the crashed instance is abandoned, recovery happens on a remounted
// stack.
func (c *Cache) Crash(t sched.Task) *CrashReport {
	rep := &CrashReport{
		Policy:     c.cfg.Flush.Name,
		Persistent: c.cfg.Flush.Persistent,
	}
	now := c.k.Now()
	for _, sh := range c.shards {
		sh.mu.Lock(t)
		// Let in-flight in-place mutations settle: a half-copied frame
		// must not be captured as a survivor (writers hold no lock
		// across the copy, only the BeginWrite reservation).
		for sh.writers > 0 {
			sh.await(t, wCleaned)
		}
		// The dirty list holds every dirty block, mid-flush ones too.
		for b := sh.dirty.head; b != nil; b = b.next {
			if !rep.Persistent {
				rep.LostBlocks++
				if age := now.Sub(b.DirtySince); age > rep.LossWindow {
					rep.LossWindow = age
				}
				continue
			}
			s := Survivor{Key: b.Key, Size: b.Size, DirtySince: b.DirtySince}
			if b.Data != nil {
				s.Data = append([]byte(nil), b.Data...)
			}
			rep.Survivors = append(rep.Survivors, s)
		}
		sh.mu.Unlock(t)
	}
	if c.intents != nil {
		un := c.intents.Unretired()
		if rep.Persistent {
			rep.Intents = un
		} else {
			rep.LostIntents = len(un)
			for _, it := range un {
				if age := now.Sub(it.At); age > rep.IntentLossWindow {
					rep.IntentLossWindow = age
				}
			}
		}
	}
	sort.Slice(rep.Survivors, func(i, j int) bool {
		a, b := rep.Survivors[i].Key, rep.Survivors[j].Key
		if a.Vol != b.Vol {
			return a.Vol < b.Vol
		}
		if a.File != b.File {
			return a.File < b.File
		}
		return a.Blk < b.Blk
	})
	return rep
}
