// Package sched implements the framework's thread scheduler: the
// component that gives every file-system process its own thread of
// control, provides event-based synchronization, and defines time.
//
// Two kernels implement the same interface:
//
//   - the virtual kernel (NewVirtual) is a deterministic cooperative
//     discrete-event scheduler: exactly one task runs at a time,
//     virtual time advances only when every task is blocked, and the
//     next runnable task is picked at random from a seeded source —
//     the paper's "random scheduling". Same seed, same run.
//
//   - the real kernel (NewReal) maps the same operations onto real
//     goroutines, reused from task to task, and the wall clock, so
//     components written for the simulator run unchanged in the
//     on-line file system.
//
// Any method that may block takes the calling Task as its first
// argument, the way contexts are threaded in ordinary Go code; the
// virtual kernel needs it to hand control back to the scheduler.
package sched

import (
	"fmt"
	"math/rand"
	"time"
)

// Time is a point in time: nanoseconds since the kernel started.
// The virtual kernel advances it explicitly; the real kernel derives
// it from the wall clock.
type Time int64

// Add returns t shifted by d.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

func (t Time) String() string { return time.Duration(t).String() }

// Forever is a time later than any reachable simulation instant.
const Forever Time = 1<<63 - 1

// Task is one thread of control inside a system. Tasks are created
// with Kernel.Go and run until their function returns. On RKernel a
// Task value may serve a later Go once its function has returned, so
// state keyed by a Task (the tracer's bound op, say) is set and
// cleared within the function, and any per-task state a kernel keeps
// is reset on each reuse.
type Task interface {
	// Name returns the task's diagnostic name.
	Name() string
	// Kernel returns the kernel the task runs on.
	Kernel() Kernel
	// Sleep suspends the task for d. In the virtual kernel this
	// advances no clock until every other task has blocked too.
	Sleep(d time.Duration)
	// SleepUntil suspends the task until the kernel clock reaches
	// at. Times in the past return immediately.
	SleepUntil(at Time)
	// Yield gives other runnable tasks a chance to run.
	Yield()
}

// Event is a counting hand-off primitive: Signal increments a count,
// Wait consumes one unit, blocking until one is available. Signals
// are never lost, which makes Event safe for I/O-completion style
// hand-offs in both kernels. This follows the paper's scheduler
// ("each thread can pick a unique event and block on it; another
// thread signals the event to make the thread runnable again").
type Event interface {
	// Wait blocks t until a signal is available and consumes it.
	Wait(t Task)
	// WaitTimeout is Wait with a deadline; it reports whether a
	// signal was consumed (false means the timeout elapsed).
	WaitTimeout(t Task, d time.Duration) bool
	// Signal makes one unit available, waking one waiter if any.
	Signal()
	// Broadcast wakes every current waiter (without leaving extra
	// signals pending).
	Broadcast()
}

// Mutex is a kernel-aware mutual-exclusion lock. In the virtual
// kernel it exists because a task can block (and lose the processor)
// in the middle of a critical section.
type Mutex interface {
	Lock(t Task)
	Unlock(t Task)
}

// Cond is a condition variable tied to a Mutex, for
// check-then-block loops such as the cache's allocation path.
type Cond interface {
	// Wait atomically releases m and blocks t, reacquiring m
	// before returning.
	Wait(t Task, m Mutex)
	// Signal wakes one waiter, Broadcast all of them.
	Signal()
	Broadcast()
}

// Kernel is the scheduler component: it owns time, tasks and
// synchronization primitives.
type Kernel interface {
	// Now returns the current kernel time.
	Now() Time
	// Rand returns the kernel's deterministic random source. In the
	// virtual kernel every random decision in the system should be
	// drawn from it so runs are reproducible.
	Rand() *rand.Rand
	// Go starts a new task named name running fn. RKernel runs it on
	// a goroutine that an exited task left parked when it has one, and
	// the returned Task may then be one an earlier Go returned.
	Go(name string, fn func(Task)) Task
	// NewEvent, NewMutex and NewCond create synchronization
	// primitives appropriate to this kernel.
	NewEvent(name string) Event
	NewMutex(name string) Mutex
	NewCond(name string) Cond
	// Run drives the system. The virtual kernel runs until no task
	// can ever run again, and returns an error on deadlock. The real
	// kernel blocks until every task has exited or Stop is called.
	Run() error
	// Stop aborts the system and Run returns. The virtual kernel
	// unwinds its blocked and sleeping tasks one at a time in spawn
	// order, running their deferred calls (called from a task, once
	// that task parks or returns). Real tasks cannot be unwound from
	// outside: components own their shutdown.
	Stop()
	// Live returns the number of tasks that have started and whose
	// function has not yet returned.
	Live() int
}

// ShardName names the i-th of n lock stripes of a component's
// synchronization objects and tasks: "base.s<i>" when the component
// is actually striped, and plain "base" for a single stripe — so a
// width-1 sharded component creates primitives with exactly the
// names (and deadlock reports) of its classic unsharded form.
func ShardName(base string, i, n int) string {
	if n <= 1 {
		return base
	}
	return fmt.Sprintf("%s.s%d", base, i)
}

// Policy selects the next task to run in the virtual kernel, the
// paper's pluggable scheduling-policy point. The slice holds every
// runnable task; Pick returns the index to dispatch. The slice is the
// kernel's own run queue: Pick must neither keep nor change it.
type Policy interface {
	Name() string
	Pick(rng *rand.Rand, runnable []Task) int
}

// RandomPolicy is the paper's default: pick uniformly at random.
type RandomPolicy struct{}

// Name returns "random".
func (RandomPolicy) Name() string { return "random" }

// Pick returns a uniformly random index.
func (RandomPolicy) Pick(rng *rand.Rand, runnable []Task) int {
	return rng.Intn(len(runnable))
}

// FIFOPolicy dispatches tasks in the order they became runnable.
type FIFOPolicy struct{}

// Name returns "fifo".
func (FIFOPolicy) Name() string { return "fifo" }

// Pick returns 0, the oldest runnable task.
func (FIFOPolicy) Pick(*rand.Rand, []Task) int { return 0 }

// LIFOPolicy dispatches the most recently readied task first.
type LIFOPolicy struct{}

// Name returns "lifo".
func (LIFOPolicy) Name() string { return "lifo" }

// Pick returns the newest runnable task.
func (LIFOPolicy) Pick(_ *rand.Rand, r []Task) int { return len(r) - 1 }

// DeadlockError is returned by the virtual kernel's Run when live
// tasks remain but none can ever become runnable.
type DeadlockError struct {
	At      Time
	Blocked []string
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sched: deadlock at %v: %d task(s) blocked forever: %v",
		e.At, len(e.Blocked), e.Blocked)
}
