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

	mu      sync.Mutex
	cond    *sync.Cond
	live    int
	stopped bool
	idle    []*rtask // exited tasks whose goroutines wait for a Go
}

// maxIdle caps the task goroutines a kernel keeps parked for reuse:
// enough for every member leg of a few concurrent flush jobs and the
// readahead batches of a busy stream, few enough that an idle kernel
// pins little stack.
const maxIdle = 64

// NewReal returns a real-time kernel. The seed only affects
// Rand-driven policy decisions (e.g. random scheduling choices made
// by components), not goroutine interleaving, which the Go runtime
// owns.
func NewReal(seed int64) *RKernel {
	src := &lockedSource{src: rand.NewSource(seed).(rand.Source64)}
	k := &RKernel{start: time.Now(), rng: rand.New(src)}
	k.cond = sync.NewCond(&k.mu)
	return k
}

// Now returns the time since the kernel was created.
func (k *RKernel) Now() Time { return Time(time.Since(k.start)) }

// Rand returns the random source shared by all tasks; its draws are
// mutex-guarded, so tasks may call it concurrently.
func (k *RKernel) Rand() *rand.Rand { return k.rng }

// lockedSource is a seeded source behind a mutex. It implements
// rand.Source64, so a rand.Rand over it draws the same sequence the
// bare source would.
type lockedSource struct {
	mu  sync.Mutex
	src rand.Source64
}

func (s *lockedSource) Int63() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.src.Int63()
}

func (s *lockedSource) Uint64() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.src.Uint64()
}

func (s *lockedSource) Seed(seed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.src.Seed(seed)
}

// rtask is a task and the goroutine that runs it. When fn returns, the
// goroutine parks on its kernel's idle list, and a later Go hands it
// the next name and fn through wake, so a warm kernel starts a task
// without allocating.
type rtask struct {
	k    *RKernel
	name string
	fn   func(Task)
	wake chan struct{} // one token per reuse; closed by Stop
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

// Go starts fn on a goroutine of its own: an idle one that an exited
// task left parked, or a new one when none is. The returned Task, like
// the goroutine, serves a later Go once fn has returned, so per-task
// state keyed by it must not outlive fn.
func (k *RKernel) Go(name string, fn func(Task)) Task {
	k.mu.Lock()
	k.live++
	if n := len(k.idle); n > 0 {
		t := k.idle[n-1]
		k.idle[n-1] = nil
		k.idle = k.idle[:n-1]
		k.mu.Unlock()
		t.name, t.fn = name, fn
		t.wake <- struct{}{}
		return t
	}
	k.mu.Unlock()
	t := &rtask{k: k, name: name, fn: fn, wake: make(chan struct{}, 1)}
	go t.loop()
	return t
}

// loop runs the goroutine's tasks, one per wake-up, until the kernel
// stops or its idle list is full.
func (t *rtask) loop() {
	for t.run() {
		if _, ok := <-t.wake; !ok {
			return
		}
	}
}

// run runs t's fn and counts the task out. It reports whether the
// goroutine parked on the idle list: a task that ends after Stop, or
// finds the list full, exits, and so does one that ends by
// runtime.Goexit (a test's FailNow), whose fn never returns.
func (t *rtask) run() (parked bool) {
	k := t.k
	returned := false
	defer func() {
		t.fn = nil
		k.mu.Lock()
		k.live--
		k.cond.Broadcast()
		parked = returned && !k.stopped && len(k.idle) < maxIdle
		if parked {
			k.idle = append(k.idle, t)
		}
		k.mu.Unlock()
	}()
	t.fn(t)
	returned = true
	return
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

// Stop releases Run and ends every idle task goroutine; a task that
// ends later exits instead of parking. Real tasks cannot be unwound
// from outside; components own their shutdown (closing listeners,
// draining queues) before the assembly calls Stop.
func (k *RKernel) Stop() {
	k.mu.Lock()
	k.stopped = true
	for i, t := range k.idle {
		close(t.wake)
		k.idle[i] = nil
	}
	k.idle = k.idle[:0]
	k.cond.Broadcast()
	k.mu.Unlock()
}

// Live returns the number of running tasks; parked goroutines do not
// count.
func (k *RKernel) Live() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.live
}

// revent is a counting event over a condition variable. The cond is
// embedded by value, so an event is one allocation.
type revent struct {
	name    string
	mu      sync.Mutex
	cond    sync.Cond
	count   int
	waiting int
}

// NewEvent creates a counting event.
func (k *RKernel) NewEvent(name string) Event {
	e := &revent{name: name}
	e.cond.L = &e.mu
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
// by the same kernel. The sync.Cond is embedded by value over the
// cond's own mu, so a wake-up reuses the runtime's waiter records.
type rcond struct {
	name string
	mu   sync.Mutex
	cond sync.Cond
}

// NewCond creates a condition variable.
func (k *RKernel) NewCond(name string) Cond {
	c := &rcond{name: name}
	c.cond.L = &c.mu
	return c
}

// Wait releases m, blocks until Signal/Broadcast, reacquires m. The
// waiter holds c.mu from before it releases m until it is queued on
// the cond, so a signaller that changed the state under m cannot wake
// the cond before the waiter is on it.
func (c *rcond) Wait(t Task, m Mutex) {
	c.mu.Lock()
	m.Unlock(t)
	c.cond.Wait()
	c.mu.Unlock()
	m.Lock(t)
}

// Signal wakes at least one waiter: it is a Broadcast, and spurious
// wake-ups are absorbed by the caller's recheck loop, the contract
// Cond.Wait requires anyway.
func (c *rcond) Signal() { c.Broadcast() }

// Broadcast wakes every waiter.
func (c *rcond) Broadcast() {
	c.mu.Lock()
	c.cond.Broadcast()
	c.mu.Unlock()
}
