package sched

import (
	"container/heap"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"
)

// VKernel is the virtual-time kernel: a deterministic cooperative
// discrete-event scheduler. Exactly one task goroutine executes at
// any moment; control passes between the scheduler loop and tasks by
// channel hand-off, so no kernel state needs locking.
type VKernel struct {
	now      Time
	policy   Policy
	rng      *rand.Rand
	runnable []Task // each a *vtask; the policy picks from this slice
	timers   timerHeap
	live     int
	nextSeq  uint64
	tasks    map[*vtask]struct{} // every live task, for deadlock reports

	yielded chan *vtask   // a task parked; scheduler may continue
	aborted chan struct{} // closed on Stop to unwind tasks
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
		policy:  p,
		rng:     rand.New(rand.NewSource(seed)),
		tasks:   make(map[*vtask]struct{}),
		yielded: make(chan *vtask),
		aborted: make(chan struct{}),
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
	resume   chan struct{}
	wakeAt   Time // valid when sleeping
	timerI   int  // heap index, -1 when not queued
	waitOn   string
	waitKind string // prefixes waitOn in reports: "", "mutex " or "cond "
	signaled bool   // event wake-up reason
	// unwound is set by the task's own goroutine when Stop aborts it
	// mid-park. Unwinding tasks run concurrently with each other and
	// with the scheduler's caller, so their exit path must not touch
	// kernel state or the yielded channel.
	unwound bool
}

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
		resume: make(chan struct{}, 1),
		timerI: -1,
	}
	k.tasks[t] = struct{}{}
	k.live++
	k.runnable = append(k.runnable, t)
	go func() {
		select {
		case <-t.resume: // wait for first dispatch
		case <-k.aborted: // stopped before ever running
			return
		}
		defer func() {
			if t.unwound {
				// Aborted by Stop: the scheduler loop has exited and
				// sibling tasks unwind concurrently, so shared kernel
				// state is off limits and nobody receives yielded.
				return
			}
			t.state = vDead
			k.live--
			delete(k.tasks, t)
			k.yielded <- t
		}()
		fn(t)
	}()
	return t
}

// park hands control back to the scheduler and blocks until this
// task is dispatched again. The caller must already have recorded
// why the task is parked (state, timers, wait queues).
func (t *vtask) park() {
	t.k.yielded <- t
	select {
	case <-t.resume:
		t.k.current = t
	case <-t.k.aborted:
		t.unwound = true
		runtime.Goexit()
	}
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
// stop on deadlock, or when every task has exited.
func (k *VKernel) Run() error {
	if k.running {
		return fmt.Errorf("sched: Run reentered")
	}
	if k.stopped {
		return fmt.Errorf("sched: Run on a stopped kernel")
	}
	k.running = true
	defer func() { k.running = false }()
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
		t.resume <- struct{}{}
		<-k.yielded
		k.current = nil
	}
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

// Stop unwinds every parked task and ends Run.
func (k *VKernel) Stop() {
	if !k.stopped {
		k.stopped = true
		close(k.aborted)
	}
}

// Stopped reports whether the kernel has been stopped.
func (k *VKernel) Stopped() bool { return k.stopped }

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
