//go:build go1.23

// The build constraint raises this file's language version to 1.23,
// the first with package iter; the module itself stays at 1.22.

package sched

import (
	"container/heap"
	"errors"
	"fmt"
	"iter"
	"math/rand"
	"runtime/debug"
	"sort"
	"time"
)

// VKernel is the virtual-time kernel: a deterministic cooperative
// discrete-event scheduler. Each task body runs as a coroutine
// (iter.Pull): the scheduler loop resumes the task the policy picked
// and the task hands control back by yielding when it parks. Exactly
// one of them executes at any moment, so no kernel state needs
// locking.
type VKernel struct {
	now      Time
	policy   Policy
	rng      *rand.Rand
	runnable []Task // each a *vtask; the policy picks from this slice
	timers   timerHeap
	live     int
	nextSeq  uint64
	tasks    map[*vtask]struct{} // every live task, for deadlock reports and Stop

	stopped bool
	running bool
	current *vtask
}

// NewVirtual returns a virtual kernel seeded with seed and using the
// paper's random dispatch policy.
func NewVirtual(seed int64) *VKernel {
	return NewVirtualPolicy(seed, RandomPolicy{})
}

// NewVirtualPolicy returns a virtual kernel with an explicit
// scheduling policy.
func NewVirtualPolicy(seed int64, p Policy) *VKernel {
	return &VKernel{
		policy: p,
		rng:    rand.New(rand.NewSource(seed)),
		tasks:  make(map[*vtask]struct{}),
	}
}

// Virtual reports true.
func (k *VKernel) Virtual() bool { return true }

// Now returns the current virtual time.
func (k *VKernel) Now() Time { return k.now }

// Rand returns the kernel's seeded random source.
func (k *VKernel) Rand() *rand.Rand { return k.rng }

// Live returns the number of live tasks.
func (k *VKernel) Live() int { return k.live }

type vstate uint8

const (
	vReady vstate = iota
	vRunning
	vSleeping
	vBlocked
	vDead
)

type vtask struct {
	k        *VKernel
	name     string
	seq      uint64
	state    vstate
	wakeAt   Time // valid when sleeping
	timerI   int  // heap index, -1 when not queued
	waitOn   string
	waitKind string // prefixes waitOn in reports: "", "mutex " or "cond "
	signaled bool   // event wake-up reason
	// The task's coroutine: next resumes it until it parks (ok) or
	// returns (!ok), stop unwinds it, and yield, called by the body,
	// parks it. All three are nil once the task is dead, so a stale
	// run-queue slot does not keep the body's closure alive.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// TaskPanic is what the virtual kernel's Run panics with when a task
// panics: the task's coroutine is gone by then, so it carries the
// task's name and its stack at the panic.
type TaskPanic struct {
	Task  string
	Value any
	Stack []byte
}

func (p *TaskPanic) Error() string {
	return fmt.Sprintf("sched: task %s panicked: %v\n\n%s", p.Task, p.Value, p.Stack)
}

// errUnwound is what park panics with when Stop unwinds a parked
// task; the task's wrapper recovers it. Task code must not swallow it:
// a recover in a task re-panics whatever it does not own.
var errUnwound = errors.New("sched: task unwound by Stop")

// Name returns the task name.
func (t *vtask) Name() string { return t.name }

// Kernel returns the owning kernel.
func (t *vtask) Kernel() Kernel { return t.k }

// Go creates a task. It may be called before Run or from a running
// task; the new task becomes runnable and will be dispatched by the
// scheduler loop. Spawning on a stopped kernel is a programming
// error: the task could never run, which silently voids tests.
func (k *VKernel) Go(name string, fn func(Task)) Task {
	if k.stopped {
		panic("sched: Go on a stopped kernel (create a new kernel per run)")
	}
	k.nextSeq++
	t := &vtask{
		k:      k,
		name:   fmt.Sprintf("%s#%d", name, k.nextSeq),
		seq:    k.nextSeq,
		state:  vReady,
		timerI: -1,
	}
	t.next, t.stop = iter.Pull(func(yield func(struct{}) bool) {
		t.yield = yield
		defer func() {
			if p := recover(); p != nil && p != errUnwound {
				panic(&TaskPanic{Task: t.name, Value: p, Stack: debug.Stack()})
			}
		}()
		fn(t)
	})
	k.tasks[t] = struct{}{}
	k.live++
	k.runnable = append(k.runnable, t)
	return t
}

// park hands control back to the scheduler and returns when this
// task is dispatched again. The caller must already have recorded
// why the task is parked (state, timers, wait queues). If Stop
// unwinds the task instead, park panics errUnwound, which runs the
// task's deferred calls on the way out.
func (t *vtask) park() {
	if !t.yield(struct{}{}) {
		panic(errUnwound)
	}
}

// exit retires a task whose body has returned or been unwound.
func (k *VKernel) exit(t *vtask) {
	t.state = vDead
	t.next, t.stop, t.yield = nil, nil, nil
	k.live--
	delete(k.tasks, t)
}

// ready moves t onto the runnable queue.
func (k *VKernel) ready(t *vtask) {
	t.state = vReady
	k.runnable = append(k.runnable, t)
}

// Sleep parks the current task until now+d.
func (t *vtask) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	t.SleepUntil(t.k.now.Add(d))
}

// SleepUntil parks the current task until the clock reaches at.
func (t *vtask) SleepUntil(at Time) {
	k := t.k
	k.checkCurrent(t, "SleepUntil")
	if at <= k.now {
		t.Yield()
		return
	}
	t.state = vSleeping
	t.wakeAt = at
	heap.Push(&k.timers, t)
	t.park()
}

// Yield reschedules the current task without advancing time.
func (t *vtask) Yield() {
	k := t.k
	k.checkCurrent(t, "Yield")
	k.ready(t)
	t.park()
}

// block parks the current task outside the timer queue; some other
// task must eventually k.ready() it. kind and name say what it waits
// on, for deadlock reports.
func (t *vtask) block(kind, name string) {
	k := t.k
	k.checkCurrent(t, "Wait")
	t.state = vBlocked
	t.waitKind, t.waitOn = kind, name
	t.park()
	t.waitKind, t.waitOn = "", ""
}

func (k *VKernel) checkCurrent(t *vtask, op string) {
	if k.current != t {
		panic(fmt.Sprintf("sched: %s called on task %q which is not running (current %v); blocking methods must be called with the caller's own Task", op, t.name, k.currentName()))
	}
}

func (k *VKernel) currentName() string {
	if k.current == nil {
		return "<scheduler>"
	}
	return k.current.name
}

// Run drives the simulation: dispatch runnable tasks (policy pick),
// advance the clock over the timer queue when none are runnable,
// stop on deadlock, or when every task has exited. A panic in a task
// unwinds the other tasks and then surfaces from Run.
func (k *VKernel) Run() error {
	if k.running {
		return fmt.Errorf("sched: Run reentered")
	}
	if k.stopped {
		return fmt.Errorf("sched: Run on a stopped kernel")
	}
	k.running = true
	defer func() {
		k.running = false
		if p := recover(); p != nil {
			k.current = nil
			k.Stop()
			panic(p)
		}
	}()
	for !k.stopped {
		if len(k.runnable) == 0 {
			if k.live == 0 {
				return nil // clean completion
			}
			if k.timers.Len() == 0 {
				err := &DeadlockError{At: k.now, Blocked: k.blockedNames()}
				k.Stop()
				return err
			}
			k.now = k.timers[0].wakeAt
			for k.timers.Len() > 0 && k.timers[0].wakeAt == k.now {
				k.ready(heap.Pop(&k.timers).(*vtask))
			}
			continue
		}
		i := k.policy.Pick(k.rng, k.runnable)
		t := k.runnable[i].(*vtask)
		k.runnable = append(k.runnable[:i], k.runnable[i+1:]...)
		t.state = vRunning
		k.current = t
		_, ok := t.next()
		k.current = nil
		if !ok {
			k.exit(t)
		}
	}
	k.unwind() // Stop was called from a task
	return nil
}

func (k *VKernel) blockedNames() []string {
	// Only blocked (not sleeping) tasks are deadlock suspects;
	// sleeping tasks would have advanced the clock.
	names := k.collectBlocked()
	sort.Strings(names)
	return names
}

// collectBlocked names every blocked task and what it waits on.
func (k *VKernel) collectBlocked() []string {
	var names []string
	for t := range k.tasks {
		if t.state == vBlocked {
			names = append(names, t.name+" on "+t.waitKind+t.waitOn)
		}
	}
	return names
}

// Stop unwinds every parked task and ends Run. Called from a task,
// it only marks the kernel stopped: Run unwinds once that task parks
// or returns.
func (k *VKernel) Stop() {
	k.stopped = true
	if k.current == nil {
		k.unwind()
	}
}

// unwind stops every live task's coroutine in spawn order, so their
// deferred calls run one at a time and in a reproducible order. A
// task that never ran is dropped without running. While a task
// unwinds it is the current task, so a kernel call in one of its
// deferred functions is not a wrong-task call; one that would park
// unwinds it further instead.
func (k *VKernel) unwind() {
	ts := make([]*vtask, 0, len(k.tasks))
	for t := range k.tasks {
		ts = append(ts, t)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i].seq < ts[j].seq })
	for _, t := range ts {
		k.current = t
		t.stop()
		k.current = nil
		k.exit(t)
	}
	k.runnable, k.timers = nil, nil
}

// timerHeap orders sleeping tasks by wake time, breaking ties by
// spawn order so runs are reproducible.
type timerHeap []*vtask

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].wakeAt != h[j].wakeAt {
		return h[i].wakeAt < h[j].wakeAt
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].timerI = i
	h[j].timerI = j
}
func (h *timerHeap) Push(x any) {
	t := x.(*vtask)
	t.timerI = len(*h)
	*h = append(*h, t)
}
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.timerI = -1
	*h = old[:n-1]
	return t
}
