package sched

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// runKernel runs k and fails the test on error.
func runKernel(t *testing.T, k *VKernel) {
	t.Helper()
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestVirtualClockStartsAtZero(t *testing.T) {
	k := NewVirtual(1)
	if k.Now() != 0 {
		t.Fatalf("Now = %v, want 0", k.Now())
	}
}

func TestSleepAdvancesVirtualTime(t *testing.T) {
	k := NewVirtual(1)
	var woke Time
	k.Go("sleeper", func(tk Task) {
		tk.Sleep(250 * time.Millisecond)
		woke = k.Now()
	})
	runKernel(t, k)
	if woke != Time(250*time.Millisecond) {
		t.Fatalf("woke at %v, want 250ms", woke)
	}
}

func TestSleepersWakeInOrder(t *testing.T) {
	k := NewVirtual(42)
	var order []int
	for i := 5; i >= 1; i-- {
		d := time.Duration(i) * time.Second
		id := i
		k.Go(fmt.Sprintf("s%d", i), func(tk Task) {
			tk.Sleep(d)
			order = append(order, id)
		})
	}
	runKernel(t, k)
	if !sort.IntsAreSorted(order) {
		t.Fatalf("wake order %v, want ascending", order)
	}
	if k.Now() != Time(5*time.Second) {
		t.Fatalf("final time %v, want 5s", k.Now())
	}
}

func TestSleepZeroAndNegative(t *testing.T) {
	k := NewVirtual(1)
	n := 0
	k.Go("z", func(tk Task) {
		tk.Sleep(0)
		n++
		tk.Sleep(-time.Second)
		n++
	})
	runKernel(t, k)
	if n != 2 {
		t.Fatalf("task did not complete, n=%d", n)
	}
	if k.Now() != 0 {
		t.Fatalf("time advanced to %v on zero sleeps", k.Now())
	}
}

func TestSleepUntilPast(t *testing.T) {
	k := NewVirtual(1)
	done := false
	k.Go("p", func(tk Task) {
		tk.Sleep(time.Second)
		tk.SleepUntil(0) // in the past: returns after a yield
		done = true
	})
	runKernel(t, k)
	if !done || k.Now() != Time(time.Second) {
		t.Fatalf("done=%v now=%v", done, k.Now())
	}
}

func TestDeterministicInterleaving(t *testing.T) {
	run := func(seed int64) []string {
		k := NewVirtual(seed)
		var log []string
		for i := 0; i < 4; i++ {
			name := fmt.Sprintf("t%d", i)
			k.Go(name, func(tk Task) {
				for j := 0; j < 3; j++ {
					log = append(log, fmt.Sprintf("%s.%d", name, j))
					tk.Yield()
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return log
	}
	a := run(7)
	b := run(7)
	c := run(8)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed differed:\n%v\n%v", a, b)
	}
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatalf("different seeds produced identical interleaving (suspicious): %v", a)
	}
}

func TestEventHandoff(t *testing.T) {
	k := NewVirtual(1)
	ev := k.NewEvent("io-done")
	var got Time
	k.Go("waiter", func(tk Task) {
		ev.Wait(tk)
		got = k.Now()
	})
	k.Go("io", func(tk Task) {
		tk.Sleep(17 * time.Millisecond)
		ev.Signal()
	})
	runKernel(t, k)
	if got != Time(17*time.Millisecond) {
		t.Fatalf("waiter released at %v, want 17ms", got)
	}
}

func TestEventSignalBeforeWaitIsNotLost(t *testing.T) {
	k := NewVirtual(1)
	ev := k.NewEvent("pre")
	ok := false
	k.Go("sig", func(tk Task) { ev.Signal() })
	k.Go("wait", func(tk Task) {
		tk.Sleep(time.Second) // guarantee the signal happens first
		ev.Wait(tk)
		ok = true
	})
	runKernel(t, k)
	if !ok {
		t.Fatal("banked signal was lost")
	}
}

func TestEventCountsMultipleSignals(t *testing.T) {
	k := NewVirtual(1)
	ev := k.NewEvent("n")
	served := 0
	k.Go("producer", func(tk Task) {
		for i := 0; i < 5; i++ {
			ev.Signal()
		}
	})
	k.Go("consumer", func(tk Task) {
		tk.Sleep(time.Millisecond)
		for i := 0; i < 5; i++ {
			ev.Wait(tk)
			served++
		}
	})
	runKernel(t, k)
	if served != 5 {
		t.Fatalf("served %d, want 5", served)
	}
}

func TestEventWaitTimeoutExpires(t *testing.T) {
	k := NewVirtual(1)
	ev := k.NewEvent("never")
	var ok bool
	var at Time
	k.Go("w", func(tk Task) {
		ok = ev.WaitTimeout(tk, 300*time.Millisecond)
		at = k.Now()
	})
	runKernel(t, k)
	if ok {
		t.Fatal("WaitTimeout reported success with no signal")
	}
	if at != Time(300*time.Millisecond) {
		t.Fatalf("timed out at %v, want 300ms", at)
	}
}

func TestEventWaitTimeoutSignaled(t *testing.T) {
	k := NewVirtual(1)
	ev := k.NewEvent("soon")
	var ok bool
	var at Time
	k.Go("w", func(tk Task) {
		ok = ev.WaitTimeout(tk, time.Hour)
		at = k.Now()
	})
	k.Go("s", func(tk Task) {
		tk.Sleep(50 * time.Millisecond)
		ev.Signal()
	})
	runKernel(t, k)
	if !ok || at != Time(50*time.Millisecond) {
		t.Fatalf("ok=%v at=%v, want signal at 50ms", ok, at)
	}
}

func TestEventBroadcastWakesAll(t *testing.T) {
	k := NewVirtual(3)
	ev := k.NewEvent("gate")
	woke := 0
	for i := 0; i < 7; i++ {
		k.Go(fmt.Sprintf("w%d", i), func(tk Task) {
			ev.Wait(tk)
			woke++
		})
	}
	k.Go("b", func(tk Task) {
		tk.Sleep(time.Millisecond)
		ev.Broadcast()
	})
	runKernel(t, k)
	if woke != 7 {
		t.Fatalf("broadcast woke %d of 7", woke)
	}
}

func TestMutexMutualExclusion(t *testing.T) {
	k := NewVirtual(11)
	m := k.NewMutex("m")
	inside := 0
	maxInside := 0
	for i := 0; i < 5; i++ {
		k.Go(fmt.Sprintf("t%d", i), func(tk Task) {
			for j := 0; j < 4; j++ {
				m.Lock(tk)
				inside++
				if inside > maxInside {
					maxInside = inside
				}
				tk.Sleep(time.Millisecond) // block while holding
				inside--
				m.Unlock(tk)
			}
		})
	}
	runKernel(t, k)
	if maxInside != 1 {
		t.Fatalf("max concurrent critical sections = %d, want 1", maxInside)
	}
}

func TestMutexUnlockByNonOwnerPanics(t *testing.T) {
	k := NewVirtual(1)
	m := k.NewMutex("m")
	paniced := false
	k.Go("a", func(tk Task) { m.Lock(tk) })
	k.Go("b", func(tk Task) {
		tk.Sleep(time.Millisecond)
		defer func() {
			if recover() != nil {
				paniced = true
			}
		}()
		m.Unlock(tk)
	})
	_ = k.Run() // task a still holds the lock at exit; ignore
	if !paniced {
		t.Fatal("unlock by non-owner did not panic")
	}
}

func TestCondWaitSignal(t *testing.T) {
	k := NewVirtual(5)
	m := k.NewMutex("m")
	c := k.NewCond("c")
	queue := 0
	consumed := 0
	k.Go("consumer", func(tk Task) {
		m.Lock(tk)
		for consumed < 3 {
			for queue == 0 {
				c.Wait(tk, m)
			}
			queue--
			consumed++
		}
		m.Unlock(tk)
	})
	k.Go("producer", func(tk Task) {
		for i := 0; i < 3; i++ {
			tk.Sleep(10 * time.Millisecond)
			m.Lock(tk)
			queue++
			c.Signal()
			m.Unlock(tk)
		}
	})
	runKernel(t, k)
	if consumed != 3 {
		t.Fatalf("consumed %d, want 3", consumed)
	}
}

func TestDeadlockDetected(t *testing.T) {
	k := NewVirtual(1)
	ev := k.NewEvent("never-signaled")
	k.Go("stuck", func(tk Task) { ev.Wait(tk) })
	err := k.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("Run = %v, want DeadlockError", err)
	}
	if len(de.Blocked) != 1 {
		t.Fatalf("blocked list %v, want 1 entry", de.Blocked)
	}
}

func TestSpawnFromRunningTask(t *testing.T) {
	k := NewVirtual(1)
	total := 0
	k.Go("parent", func(tk Task) {
		for i := 0; i < 3; i++ {
			k.Go("child", func(tk Task) {
				tk.Sleep(time.Millisecond)
				total++
			})
		}
	})
	runKernel(t, k)
	if total != 3 {
		t.Fatalf("children completed %d, want 3", total)
	}
}

func TestStopUnwindsTasks(t *testing.T) {
	k := NewVirtual(1)
	ev := k.NewEvent("e")
	k.Go("blocked", func(tk Task) { ev.Wait(tk) })
	k.Go("stopper", func(tk Task) {
		tk.Sleep(time.Millisecond)
		k.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run after Stop: %v", err)
	}
	if !k.stopped {
		t.Fatal("kernel not stopped")
	}
}

// TestStopDoesNotLeakGoroutines pins the abort-path fix: unwound
// tasks must exit instead of blocking forever on the scheduler
// hand-off, or every stopped simulation leaks its parked tasks.
func TestStopDoesNotLeakGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		k := NewVirtual(int64(i))
		ev := k.NewEvent("never")
		for j := 0; j < 10; j++ {
			k.Go("blocked", func(tk Task) { ev.Wait(tk) })
		}
		k.Go("stopper", func(tk Task) {
			tk.Sleep(time.Millisecond)
			k.Stop()
		})
		if err := k.Run(); err != nil {
			t.Fatalf("Run %d: %v", i, err)
		}
	}
	// Unwinding goroutines exit asynchronously; give them a moment.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+5 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d after 20 stopped runs",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestPolicyFIFOAndLIFO(t *testing.T) {
	for _, tc := range []struct {
		policy Policy
		want   string
	}{
		{FIFOPolicy{}, "[a b c]"},
		{LIFOPolicy{}, "[c b a]"},
	} {
		k := NewVirtualPolicy(1, tc.policy)
		var order []string
		for _, n := range []string{"a", "b", "c"} {
			name := n
			k.Go(name, func(tk Task) { order = append(order, name) })
		}
		if err := k.Run(); err != nil {
			t.Fatalf("%s: %v", tc.policy.Name(), err)
		}
		if fmt.Sprint(order) != tc.want {
			t.Errorf("%s order = %v, want %v", tc.policy.Name(), order, tc.want)
		}
	}
}

func TestBlockingFromWrongTaskPanics(t *testing.T) {
	k := NewVirtual(1)
	var taskA Task
	caught := false
	taskA = k.Go("a", func(tk Task) { tk.Sleep(time.Hour) })
	k.Go("b", func(tk Task) {
		defer func() {
			if recover() != nil {
				caught = true
				k.Stop()
			}
		}()
		taskA.Sleep(time.Second) // using someone else's task handle
	})
	_ = k.Run()
	if !caught {
		t.Fatal("cross-task blocking call did not panic")
	}
}

// TestTimerHeapProperty checks, for arbitrary wake times, that the
// kernel releases sleepers in nondecreasing wake-time order.
func TestTimerHeapProperty(t *testing.T) {
	prop := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		if len(delays) > 64 {
			delays = delays[:64]
		}
		k := NewVirtual(99)
		var wakes []Time
		for i, d := range delays {
			dd := time.Duration(d) * time.Microsecond
			k.Go(fmt.Sprintf("s%d", i), func(tk Task) {
				tk.Sleep(dd)
				wakes = append(wakes, k.Now())
			})
		}
		if err := k.Run(); err != nil {
			return false
		}
		for i := 1; i < len(wakes); i++ {
			if wakes[i] < wakes[i-1] {
				return false
			}
		}
		return len(wakes) == len(delays)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestManyTasksStress runs a few hundred interacting tasks to shake
// out hand-off bugs.
func TestManyTasksStress(t *testing.T) {
	k := NewVirtual(123)
	ev := k.NewEvent("work")
	produced, consumed := 0, 0
	for i := 0; i < 50; i++ {
		k.Go("prod", func(tk Task) {
			for j := 0; j < 20; j++ {
				tk.Sleep(time.Duration(1+j) * time.Millisecond)
				produced++
				ev.Signal()
			}
		})
	}
	for i := 0; i < 25; i++ {
		k.Go("cons", func(tk Task) {
			for j := 0; j < 40; j++ {
				ev.Wait(tk)
				consumed++
			}
		})
	}
	runKernel(t, k)
	if produced != 1000 || consumed != 1000 {
		t.Fatalf("produced %d consumed %d, want 1000/1000", produced, consumed)
	}
}

// A deadlock report names every blocked task with what it waits on: a
// mutex, a cond or an event.
func TestDeadlockNamesMutexAndCondWaiters(t *testing.T) {
	k := NewVirtual(1)
	mu, held := k.NewMutex("mu"), k.NewMutex("held")
	c, never := k.NewCond("c"), k.NewEvent("never")
	k.Go("owner", func(tk Task) {
		held.Lock(tk)
		never.Wait(tk)
	})
	k.Go("locker", func(tk Task) {
		tk.Sleep(time.Millisecond) // after owner took held
		held.Lock(tk)
	})
	k.Go("waiter", func(tk Task) {
		mu.Lock(tk)
		c.Wait(tk, mu)
	})
	err := k.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("Run = %v, want DeadlockError", err)
	}
	want := []string{"locker#2 on mutex held", "owner#1 on never", "waiter#3 on cond c"}
	if fmt.Sprint(de.Blocked) != fmt.Sprint(want) {
		t.Fatalf("blocked %q, want %q", de.Blocked, want)
	}
}

// The kernel keeps no primitive alive: an event, mutex or cond that
// nothing references any more is collected while the kernel lives on.
func TestDroppedPrimitivesAreCollected(t *testing.T) {
	k := NewVirtual(1)
	collected := make(chan string, 3)
	func() {
		ev, m, c := k.NewEvent("ev"), k.NewMutex("m"), k.NewCond("c")
		k.Go("user", func(tk Task) {
			ev.Signal()
			ev.Wait(tk)
			m.Lock(tk)
			c.Signal()
			m.Unlock(tk)
		})
		runKernel(t, k)
		runtime.SetFinalizer(ev.(*vevent), func(*vevent) { collected <- "event" })
		runtime.SetFinalizer(m.(*vmutex), func(*vmutex) { collected <- "mutex" })
		runtime.SetFinalizer(c.(*vcond), func(*vcond) { collected <- "cond" })
	}()
	got := map[string]bool{}
	deadline := time.Now().Add(5 * time.Second)
	for len(got) < 3 && time.Now().Before(deadline) {
		runtime.GC()
		select {
		case s := <-collected:
			got[s] = true
		case <-time.After(10 * time.Millisecond):
		}
	}
	runtime.KeepAlive(k)
	if len(got) != 3 {
		t.Fatalf("collected %v, want event, mutex and cond", got)
	}
}

// Dispatch allocates nothing: a ping-pong between two tasks parks and
// dispatches each of them once per round trip.
func TestDispatchAllocatesNothing(t *testing.T) {
	k := NewVirtual(1)
	ping, pong := k.NewEvent("ping"), k.NewEvent("pong")
	var allocs float64
	k.Go("pong", func(tk Task) {
		for {
			ping.Wait(tk)
			pong.Signal()
		}
	})
	k.Go("ping", func(tk Task) {
		allocs = testing.AllocsPerRun(1000, func() {
			ping.Signal()
			pong.Wait(tk)
		})
		k.Stop()
	})
	runKernel(t, k)
	if allocs != 0 {
		t.Fatalf("%v allocs per ping-pong round trip, want 0", allocs)
	}
}

// BenchmarkVKernelSwitch times one ping-pong round trip between two
// virtual-kernel tasks: each parks once and is dispatched once, so an
// op is two task switches and two returns to the scheduler loop.
func BenchmarkVKernelSwitch(b *testing.B) {
	b.ReportAllocs()
	k := NewVirtual(1)
	ping, pong := k.NewEvent("ping"), k.NewEvent("pong")
	k.Go("pong", func(tk Task) {
		for {
			ping.Wait(tk)
			pong.Signal()
		}
	})
	k.Go("ping", func(tk Task) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ping.Signal()
			pong.Wait(tk)
		}
		b.StopTimer()
		k.Stop()
	})
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// A panic in a task surfaces from Run, naming the task and carrying
// its stack, after the other tasks have been unwound.
func TestTaskPanicSurfacesFromRun(t *testing.T) {
	k := NewVirtual(1)
	ev := k.NewEvent("never")
	unwound := false
	k.Go("parked", func(tk Task) {
		defer func() { unwound = true }()
		ev.Wait(tk)
	})
	k.Go("bad", func(tk Task) {
		tk.Sleep(time.Millisecond)
		panic("boom")
	})
	var got any
	func() {
		defer func() { got = recover() }()
		_ = k.Run()
	}()
	tp, ok := got.(*TaskPanic)
	if !ok {
		t.Fatalf("Run panicked with %#v, want a *TaskPanic", got)
	}
	if tp.Task != "bad#2" || tp.Value != "boom" {
		t.Fatalf("TaskPanic{Task: %q, Value: %v}, want bad#2 and boom", tp.Task, tp.Value)
	}
	if !strings.Contains(string(tp.Stack), "TestTaskPanicSurfacesFromRun") {
		t.Fatalf("stack does not reach the panicking task:\n%s", tp.Stack)
	}
	if !unwound || !k.stopped || k.Live() != 0 {
		t.Fatalf("after the panic: parked task unwound %v, stopped %v, live %d; want true, true, 0",
			unwound, k.stopped, k.Live())
	}
}

// Stop unwinds parked tasks one at a time in spawn order, running
// their deferred calls, whether Run stops the kernel itself (on
// deadlock, outside any task) or a task calls Stop. Deferred kernel
// calls work while a task unwinds: a deferred Unlock hands the mutex
// on, and a deferred call that would park unwinds the task further.
func TestStopRunsDeferredCallsInSpawnOrder(t *testing.T) {
	for _, fromTask := range []bool{false, true} {
		k := NewVirtual(5)
		ev, m := k.NewEvent("never"), k.NewMutex("m")
		var order []int
		const n = 8
		for i := 1; i <= n; i++ {
			k.Go(fmt.Sprintf("p%d", i), func(tk Task) {
				defer func() { order = append(order, i) }()
				// Park in an order unrelated to spawn order.
				tk.Sleep(time.Duration((i*5)%n) * time.Millisecond)
				switch i % 3 {
				case 0:
					m.Lock(tk)
					defer m.Unlock(tk)
					ev.Wait(tk)
				case 1:
					defer tk.Sleep(time.Second)
					ev.Wait(tk)
				default:
					ev.Wait(tk)
				}
			})
		}
		if fromTask {
			k.Go("stopper", func(tk Task) {
				tk.Sleep(time.Hour)
				k.Stop()
			})
		}
		err := k.Run()
		if _, deadlock := err.(*DeadlockError); deadlock == fromTask {
			t.Fatalf("fromTask=%v: Run = %v", fromTask, err)
		}
		if want := "[1 2 3 4 5 6 7 8]"; fmt.Sprint(order) != want {
			t.Fatalf("fromTask=%v: deferred calls ran in order %v, want %v", fromTask, order, want)
		}
		if !k.stopped || k.Live() != 0 {
			t.Fatalf("fromTask=%v: stopped %v, live %d after Stop", fromTask, k.stopped, k.Live())
		}
	}
}

// A task that never ran is dropped by Stop without running.
func TestStopBeforeRunRunsNoTask(t *testing.T) {
	k := NewVirtual(1)
	ran := false
	k.Go("never", func(Task) {
		defer func() { ran = true }()
	})
	k.Stop()
	if ran || k.Live() != 0 {
		t.Fatalf("ran %v, live %d after Stop before Run; want false, 0", ran, k.Live())
	}
	if err := k.Run(); err == nil {
		t.Fatal("Run on a stopped kernel returned nil")
	}
}
