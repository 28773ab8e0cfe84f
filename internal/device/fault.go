package device

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/core"
)

// This file is the storage stack's fault/persistence seam. The
// driver engine consults an Interceptor at the exact point where a
// request would reach the hardware — after queueing and scheduling,
// before the bus transfer / disk mechanism / backing file — so one
// seam covers the simulated bus+disk stack and both real back-ends,
// and everything above the driver (volume, cache, layouts) runs
// unchanged over an injectable stack.

// Injected fault errors.
var (
	// ErrInjected is a transient injected I/O failure.
	ErrInjected = errors.New("device: injected I/O error")
	// ErrTornWrite is a write that reached the media only partially.
	ErrTornWrite = errors.New("device: torn write")
	// ErrPowerCut means the (simulated) machine lost power: the
	// request, and every request after it, never reaches the media.
	ErrPowerCut = errors.New("device: power cut")
	// ErrDiskDead means the request's disk has died permanently:
	// unlike ErrInjected, no retry will ever succeed. The volume
	// manager reacts by marking the member dead and serving from
	// redundancy.
	ErrDiskDead = errors.New("device: disk dead")
)

// Decision is an interceptor's verdict on one request.
type Decision struct {
	// Err, when non-nil, fails the request. With a nil Err the
	// request proceeds to the hardware untouched.
	Err error
	// TornBlocks, with a non-nil Err on a write, is the prefix of the
	// request that still reaches the media before the failure — the
	// torn-write model. Zero means nothing was written.
	TornBlocks int
	// TornBytes, with a non-nil Err on a single-block write, is the
	// byte prefix of the block that reaches the media; the rest of
	// the block keeps its old contents — the sub-block tear that
	// splices half an inode-table or bitmap update onto stale bytes.
	TornBytes int
}

// Interceptor observes every request at the driver/hardware boundary
// and may fail, tear or swallow it. Implementations must be safe for
// concurrent use: the real kernel runs one worker task per driver.
type Interceptor interface {
	Intercept(r *Request) Decision
}

// FaultConfig parameterizes a FaultPlan.
type FaultConfig struct {
	// Seed drives the plan's private random source (independent of
	// the kernel's, so installing a plan with zero rates leaves a
	// simulation's schedule untouched).
	Seed int64
	// ReadErrRate / WriteErrRate are per-request failure
	// probabilities (0..1).
	ReadErrRate  float64
	WriteErrRate float64
	// TornRate is the probability that a multi-block write is torn:
	// a random non-empty prefix reaches the media, then the request
	// fails with ErrTornWrite.
	TornRate float64
	// CutAfterIO, when positive, trips a power cut at the Nth
	// intercepted I/O (1-based): that request and everything after
	// it fail with ErrPowerCut and never reach the media.
	CutAfterIO int64
	// CutTearsWrite tears the cut request instead of swallowing it
	// whole when it is a multi-block write — the torn final segment
	// or checkpoint a real power cut leaves behind.
	CutTearsWrite bool
	// CutTearsSubBlock extends CutTearsWrite to single-block writes:
	// the cut request persists only a byte prefix of its one block,
	// modeling a sector-granular tear through an inode table or
	// allocation bitmap. Only meaningful with real (data-carrying)
	// back-ends; simulated stacks ignore the byte prefix.
	CutTearsSubBlock bool
	// KillAfterIO, when positive, kills disk KillMember at the Nth
	// intercepted I/O (1-based): that request and every later one
	// addressed to the member fail with ErrDiskDead — the permanent
	// member-loss fault, as opposed to the transient error rates.
	KillAfterIO int64
	// KillMember is the disk index (Request.Addr.Disk) that
	// KillAfterIO kills.
	KillMember int
}

// FaultPlan is the standard Interceptor: I/O error rates, torn
// writes, and a power cut that freezes the whole stack at an
// arbitrary I/O. One plan is shared by every driver of a system so
// the cut is atomic across an array: the global I/O counter orders
// requests across members, and once it trips nothing anywhere
// reaches the media.
type FaultPlan struct {
	mu     sync.Mutex
	cfg    FaultConfig
	rng    *rand.Rand
	ios    int64
	cut    bool
	onCut  []func()
	dead   int // disk index killed by the death fault, -1 none
	onKill []func(member int)

	// Injection telemetry, by outcome kind.
	injRead, injWrite, injTorn, cutRejects int64
}

// NewFaultPlan builds a plan from cfg.
func NewFaultPlan(cfg FaultConfig) *FaultPlan {
	return &FaultPlan{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), dead: -1}
}

// Intercept implements Interceptor.
func (p *FaultPlan) Intercept(r *Request) Decision {
	p.mu.Lock()
	if p.cut {
		p.cutRejects++
		p.mu.Unlock()
		return Decision{Err: ErrPowerCut}
	}
	p.ios++
	if p.cfg.KillAfterIO > 0 && p.ios >= p.cfg.KillAfterIO && p.dead < 0 {
		fns := p.killLocked(p.cfg.KillMember)
		dead := p.dead
		p.mu.Unlock()
		for _, fn := range fns {
			fn(dead)
		}
		p.mu.Lock()
	}
	if p.dead >= 0 && r.Addr.Disk == p.dead {
		p.mu.Unlock()
		return Decision{Err: ErrDiskDead}
	}
	if p.cfg.CutAfterIO > 0 && p.ios >= p.cfg.CutAfterIO {
		dec := Decision{Err: ErrPowerCut}
		if p.cfg.CutTearsWrite && r.Op == OpWrite && r.Blocks > 1 {
			dec.TornBlocks = 1 + p.rng.Intn(r.Blocks-1)
		} else if p.cfg.CutTearsSubBlock && r.Op == OpWrite && r.Blocks == 1 {
			dec.TornBytes = 1 + p.rng.Intn(core.BlockSize-1)
		}
		fns := p.cutLocked()
		p.mu.Unlock()
		for _, fn := range fns {
			fn()
		}
		return dec
	}
	rate := p.cfg.ReadErrRate
	if r.Op == OpWrite {
		rate = p.cfg.WriteErrRate
	}
	if rate > 0 && p.rng.Float64() < rate {
		if r.Op == OpWrite {
			p.injWrite++
		} else {
			p.injRead++
		}
		p.mu.Unlock()
		return Decision{Err: ErrInjected}
	}
	if r.Op == OpWrite && r.Blocks > 1 && p.cfg.TornRate > 0 && p.rng.Float64() < p.cfg.TornRate {
		p.injTorn++
		dec := Decision{Err: ErrTornWrite, TornBlocks: 1 + p.rng.Intn(r.Blocks-1)}
		p.mu.Unlock()
		return dec
	}
	p.mu.Unlock()
	return Decision{}
}

// cutLocked trips the cut and returns the callbacks to run (with the
// lock released, so a callback may inspect the plan). The trigger is
// one-shot: Restore turns the power back on without re-tripping.
func (p *FaultPlan) cutLocked() []func() {
	p.cut = true
	p.cfg.CutAfterIO = 0
	fns := p.onCut
	p.onCut = nil
	return fns
}

// Cut trips the power cut now (the time-based crash path). Pending
// and future requests fail with ErrPowerCut.
func (p *FaultPlan) Cut() {
	p.mu.Lock()
	if p.cut {
		p.mu.Unlock()
		return
	}
	fns := p.cutLocked()
	p.mu.Unlock()
	for _, fn := range fns {
		fn()
	}
}

// ArmCut arms (or re-arms) the I/O-count cut trigger n device I/Os
// from now, so a cut can target a phase that starts mid-run — e.g.
// the I/Os of a supervised repair, not the baseline traffic that
// preceded it. n <= 0 disarms.
func (p *FaultPlan) ArmCut(n int64) {
	p.mu.Lock()
	if n > 0 {
		p.cfg.CutAfterIO = p.ios + n
	} else {
		p.cfg.CutAfterIO = 0
	}
	p.mu.Unlock()
}

// Restore turns the power back on: requests flow to the media again.
// Simulated recovery reuses the crashed stack this way; a real
// recovery would reopen the devices instead.
func (p *FaultPlan) Restore() {
	p.mu.Lock()
	p.cut = false
	p.mu.Unlock()
}

// OnCut registers fn to run once at the instant the cut trips (from
// the task performing the fatal I/O). A plan already cut runs fn
// immediately.
func (p *FaultPlan) OnCut(fn func()) {
	p.mu.Lock()
	if p.cut {
		p.mu.Unlock()
		fn()
		return
	}
	p.onCut = append(p.onCut, fn)
	p.mu.Unlock()
}

// killLocked marks member dead and returns the callbacks to run with
// the lock released. The trigger is one-shot.
func (p *FaultPlan) killLocked(member int) []func(int) {
	p.dead = member
	p.cfg.KillAfterIO = 0
	fns := p.onKill
	p.onKill = nil
	return fns
}

// Kill declares disk member dead now: every request addressed to it
// from here on fails with ErrDiskDead. Idempotent; only one member
// can be dead per plan (single-fault model).
func (p *FaultPlan) Kill(member int) {
	p.mu.Lock()
	if p.dead >= 0 {
		p.mu.Unlock()
		return
	}
	fns := p.killLocked(member)
	p.mu.Unlock()
	for _, fn := range fns {
		fn(member)
	}
}

// OnKill registers fn to run once when the death fault trips (from
// the task performing the fatal I/O), with the dead member's index.
// A plan whose member already died runs fn immediately.
func (p *FaultPlan) OnKill(fn func(member int)) {
	p.mu.Lock()
	if p.dead >= 0 {
		dead := p.dead
		p.mu.Unlock()
		fn(dead)
		return
	}
	p.onKill = append(p.onKill, fn)
	p.mu.Unlock()
}

// Revive clears the death fault — the harness swaps in a replacement
// disk for the dead member and lets I/O flow to it again.
func (p *FaultPlan) Revive() {
	p.mu.Lock()
	p.dead = -1
	p.mu.Unlock()
}

// HasCut reports whether the power cut has tripped.
func (p *FaultPlan) HasCut() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cut
}

// Injected returns the injection tallies: transient read and write
// errors, torn writes, and requests rejected after a power cut.
func (p *FaultPlan) Injected() (readErrs, writeErrs, torn, cutRejects int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.injRead, p.injWrite, p.injTorn, p.cutRejects
}

// IOs returns the number of requests intercepted so far.
func (p *FaultPlan) IOs() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ios
}

func (p *FaultPlan) String() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return fmt.Sprintf("faultplan(ios=%d cut=%v rerr=%g werr=%g torn=%g)",
		p.ios, p.cut, p.cfg.ReadErrRate, p.cfg.WriteErrRate, p.cfg.TornRate)
}
