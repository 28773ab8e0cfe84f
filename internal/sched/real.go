package sched

import (
	"math/rand"
	"runtime"
	"sync"
	"time"
)

// RKernel is the real-time kernel: the same scheduler interface
// mapped onto ordinary goroutines and the wall clock, used when the
// component library is instantiated into the on-line file system.
type RKernel struct {
	start time.Time
	rng   *rand.Rand
	rngMu sync.Mutex

	mu      sync.Mutex
	cond    *sync.Cond
	live    int
	stopped bool
}

// NewReal returns a real-time kernel. The seed only affects
// Rand-driven policy decisions (e.g. random scheduling choices made
// by components), not goroutine interleaving, which the Go runtime
// owns.
func NewReal(seed int64) *RKernel {
	k := &RKernel{start: time.Now(), rng: rand.New(rand.NewSource(seed))}
	k.cond = sync.NewCond(&k.mu)
	return k
}

// Virtual reports false.
func (k *RKernel) Virtual() bool { return false }

// Now returns the time since the kernel was created.
func (k *RKernel) Now() Time { return Time(time.Since(k.start)) }

// Rand returns a mutex-guarded random source shared by all tasks.
func (k *RKernel) Rand() *rand.Rand { return k.rng }

// LockedRand draws one int63 under the kernel's rng lock; real
// components should prefer it over Rand() in hot concurrent paths.
func (k *RKernel) LockedRand() int64 {
	k.rngMu.Lock()
	defer k.rngMu.Unlock()
	return k.rng.Int63()
}

type rtask struct {
	k    *RKernel
	name string
}

// Name returns the task name.
func (t *rtask) Name() string { return t.name }

// Kernel returns the owning kernel.
func (t *rtask) Kernel() Kernel { return t.k }

// Sleep suspends the goroutine for d of wall time.
func (t *rtask) Sleep(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}

// SleepUntil suspends the goroutine until kernel time at.
func (t *rtask) SleepUntil(at Time) { t.Sleep(at.Sub(t.k.Now())) }

// Yield hints the runtime to run something else.
func (t *rtask) Yield() { runtime.Gosched() }

// Go starts fn on a new goroutine.
func (k *RKernel) Go(name string, fn func(Task)) Task {
	t := &rtask{k: k, name: name}
	k.mu.Lock()
	k.live++
	k.mu.Unlock()
	go func() {
		defer func() {
			k.mu.Lock()
			k.live--
			k.cond.Broadcast()
			k.mu.Unlock()
		}()
		fn(t)
	}()
	return t
}

// Run blocks until every task has exited or Stop is called.
func (k *RKernel) Run() error {
	k.mu.Lock()
	defer k.mu.Unlock()
	for k.live > 0 && !k.stopped {
		k.cond.Wait()
	}
	return nil
}

// SetHorizon is a no-op: the wall clock has no horizon.
func (k *RKernel) SetHorizon(Time) {}

// Stop releases Run. Real tasks cannot be unwound from outside;
// components own their shutdown (closing listeners, draining
// queues) before the assembly calls Stop.
func (k *RKernel) Stop() {
	k.mu.Lock()
	k.stopped = true
	k.cond.Broadcast()
	k.mu.Unlock()
}

// Live returns the number of live tasks.
func (k *RKernel) Live() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.live
}

// revent is a counting event over a condition variable.
type revent struct {
	name    string
	mu      sync.Mutex
	cond    *sync.Cond
	count   int
	waiting int
}

// NewEvent creates a counting event.
func (k *RKernel) NewEvent(name string) Event {
	e := &revent{name: name}
	e.cond = sync.NewCond(&e.mu)
	return e
}

// Wait consumes one signal, blocking until available.
func (e *revent) Wait(Task) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.waiting++
	for e.count == 0 {
		e.cond.Wait()
	}
	e.waiting--
	e.count--
}

// WaitTimeout consumes one signal or gives up after d.
func (e *revent) WaitTimeout(_ Task, d time.Duration) bool {
	deadline := time.Now().Add(d)
	e.mu.Lock()
	defer e.mu.Unlock()
	e.waiting++
	defer func() { e.waiting-- }()
	for e.count == 0 {
		remain := time.Until(deadline)
		if remain <= 0 {
			return false
		}
		timer := time.AfterFunc(remain, func() {
			e.mu.Lock()
			e.cond.Broadcast()
			e.mu.Unlock()
		})
		e.cond.Wait()
		timer.Stop()
	}
	e.count--
	return true
}

// Signal banks one signal and wakes a waiter.
func (e *revent) Signal() {
	e.mu.Lock()
	e.count++
	e.cond.Signal()
	e.mu.Unlock()
}

// Broadcast releases every task currently waiting.
func (e *revent) Broadcast() {
	e.mu.Lock()
	if e.waiting > e.count {
		e.count = e.waiting
	}
	e.cond.Broadcast()
	e.mu.Unlock()
}

// rmutex wraps sync.Mutex.
type rmutex struct {
	name string
	mu   sync.Mutex
}

// NewMutex creates a mutex.
func (k *RKernel) NewMutex(name string) Mutex { return &rmutex{name: name} }

// Lock acquires the mutex.
func (m *rmutex) Lock(Task) { m.mu.Lock() }

// Unlock releases the mutex.
func (m *rmutex) Unlock(Task) { m.mu.Unlock() }

// rcond is a condition variable usable with any kernel Mutex made
// by the same kernel.
type rcond struct {
	name    string
	mu      sync.Mutex
	ch      chan struct{}
	waiters int // tasks parked on ch
}

// NewCond creates a condition variable.
func (k *RKernel) NewCond(name string) Cond {
	return &rcond{name: name, ch: make(chan struct{})}
}

// Wait releases m, blocks until Signal/Broadcast, reacquires m.
func (c *rcond) Wait(t Task, m Mutex) {
	c.mu.Lock()
	ch := c.ch
	c.waiters++
	c.mu.Unlock()
	m.Unlock(t)
	<-ch
	m.Lock(t)
}

// Signal wakes at least one waiter (channel-generation broadcast is
// used for both; spurious wake-ups are absorbed by the caller's
// recheck loop, the contract Cond.Wait requires anyway).
func (c *rcond) Signal() { c.Broadcast() }

// Broadcast wakes every waiter by retiring the generation channel;
// with no waiter there is nothing to retire, and nothing allocated.
func (c *rcond) Broadcast() {
	c.mu.Lock()
	if c.waiters > 0 {
		close(c.ch)
		c.ch = make(chan struct{})
		c.waiters = 0
	}
	c.mu.Unlock()
}
