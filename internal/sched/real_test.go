package sched

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestRealKernelRunWaitsForTasks(t *testing.T) {
	k := NewReal(1)
	var n atomic.Int32
	for i := 0; i < 8; i++ {
		k.Go("t", func(tk Task) {
			tk.Sleep(5 * time.Millisecond)
			n.Add(1)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n.Load() != 8 {
		t.Fatalf("completed %d, want 8", n.Load())
	}
	if k.Live() != 0 {
		t.Fatalf("live = %d after Run", k.Live())
	}
}

func TestRealKernelNowAdvances(t *testing.T) {
	k := NewReal(1)
	t0 := k.Now()
	time.Sleep(10 * time.Millisecond)
	if k.Now()-t0 < Time(5*time.Millisecond) {
		t.Fatalf("clock barely advanced: %v", k.Now()-t0)
	}
	if (&RKernel{}).Virtual() {
		t.Fatal("Virtual() should be false")
	}
}

func TestRealEventHandoff(t *testing.T) {
	k := NewReal(1)
	ev := k.NewEvent("e")
	got := make(chan struct{})
	k.Go("w", func(tk Task) {
		ev.Wait(tk)
		close(got)
	})
	k.Go("s", func(tk Task) {
		tk.Sleep(2 * time.Millisecond)
		ev.Signal()
	})
	select {
	case <-got:
	case <-time.After(2 * time.Second):
		t.Fatal("real event hand-off timed out")
	}
	_ = k.Run()
}

func TestRealEventSignalFirst(t *testing.T) {
	k := NewReal(1)
	ev := k.NewEvent("e")
	ev.Signal()
	done := make(chan bool, 1)
	k.Go("w", func(tk Task) { ev.Wait(tk); done <- true })
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("banked signal lost in real kernel")
	}
	_ = k.Run()
}

func TestRealEventWaitTimeout(t *testing.T) {
	k := NewReal(1)
	ev := k.NewEvent("e")
	var tk Task = &rtask{k: k, name: "inline"}
	start := time.Now()
	if ev.WaitTimeout(tk, 20*time.Millisecond) {
		t.Fatal("timeout wait succeeded with no signal")
	}
	if time.Since(start) < 15*time.Millisecond {
		t.Fatal("WaitTimeout returned too early")
	}
	ev.Signal()
	if !ev.WaitTimeout(tk, time.Second) {
		t.Fatal("signaled WaitTimeout failed")
	}
}

func TestRealEventBroadcast(t *testing.T) {
	k := NewReal(1)
	ev := k.NewEvent("gate")
	var woke atomic.Int32
	for i := 0; i < 5; i++ {
		k.Go("w", func(tk Task) {
			ev.Wait(tk)
			woke.Add(1)
		})
	}
	time.Sleep(20 * time.Millisecond) // let them park
	ev.Broadcast()
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if woke.Load() != 5 {
		t.Fatalf("broadcast woke %d of 5", woke.Load())
	}
}

func TestRealMutexExcludes(t *testing.T) {
	k := NewReal(1)
	m := k.NewMutex("m")
	var inside, maxSeen atomic.Int32
	for i := 0; i < 8; i++ {
		k.Go("t", func(tk Task) {
			for j := 0; j < 50; j++ {
				m.Lock(tk)
				v := inside.Add(1)
				if v > maxSeen.Load() {
					maxSeen.Store(v)
				}
				inside.Add(-1)
				m.Unlock(tk)
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if maxSeen.Load() != 1 {
		t.Fatalf("mutex admitted %d tasks", maxSeen.Load())
	}
}

func TestRealCondSignal(t *testing.T) {
	k := NewReal(1)
	m := k.NewMutex("m")
	c := k.NewCond("c")
	ready := false
	done := make(chan struct{})
	k.Go("w", func(tk Task) {
		m.Lock(tk)
		for !ready {
			c.Wait(tk, m)
		}
		m.Unlock(tk)
		close(done)
	})
	k.Go("s", func(tk Task) {
		tk.Sleep(5 * time.Millisecond)
		m.Lock(tk)
		ready = true
		c.Broadcast()
		m.Unlock(tk)
	})
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("cond hand-off timed out")
	}
	_ = k.Run()
}

// A broadcast nobody waits for allocates nothing: the cache broadcasts
// on every returned loan and released pin.
func TestRealCondBroadcastNoWaiterAllocs(t *testing.T) {
	c := NewReal(1).NewCond("c")
	if n := testing.AllocsPerRun(100, c.Broadcast); n != 0 {
		t.Fatalf("Broadcast with no waiter allocated %v times", n)
	}
}

func TestRealStopReleasesRun(t *testing.T) {
	k := NewReal(1)
	k.Go("forever", func(tk Task) { tk.Sleep(time.Hour) })
	go func() {
		time.Sleep(5 * time.Millisecond)
		k.Stop()
	}()
	done := make(chan error, 1)
	go func() { done <- k.Run() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Stop did not release Run")
	}
}

// TestRealGoAllocatesNothing: once a task goroutine is parked, a Go
// and the wait for its task to end allocate nothing. Run returns when
// the task is counted out, which is when its goroutine parks, so every
// Go finds it idle.
func TestRealGoAllocatesNothing(t *testing.T) {
	k := NewReal(1)
	defer k.Stop()
	var ran atomic.Int32
	fn := func(Task) { ran.Add(1) }
	spawn := func() {
		k.Go("t", fn)
		_ = k.Run()
	}
	spawn()
	if n := testing.AllocsPerRun(1000, spawn); n != 0 {
		t.Fatalf("Go + wait: %v allocs, want 0", n)
	}
	if ran.Load() != 1002 {
		t.Fatalf("ran %d tasks, want 1002", ran.Load())
	}
}

// TestRealStopEndsIdleGoroutines: Stop ends every parked task
// goroutine, and a task that ends after Stop exits instead of parking,
// so the goroutine count settles back to where it started.
func TestRealStopEndsIdleGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	k := NewReal(1)
	const n = 8
	gate := k.NewEvent("gate")
	for i := 0; i < n; i++ {
		k.Go("t", func(tk Task) { gate.Wait(tk) }) // n goroutines at once
	}
	for i := 0; i < n; i++ {
		gate.Signal()
	}
	_ = k.Run()
	if idle := idleCount(k); idle != n {
		t.Fatalf("%d goroutines parked after %d tasks ended, want %d", idle, n, n)
	}
	late := k.NewEvent("late")
	k.Go("late", func(tk Task) { late.Wait(tk) })
	k.Stop()
	late.Signal()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("%d goroutines after Stop, %d before the kernel", got, before)
	}
	if k.Live() != 0 || idleCount(k) != 0 {
		t.Fatalf("after Stop: %d live, %d parked, want 0 and 0", k.Live(), idleCount(k))
	}
}

// TestRealGoReuseHammer spawns tasks from several tasks at once, eight
// in flight per spawner, so goroutines park and are handed new tasks
// concurrently (run it under -race): every task runs once under its own
// name, and the idle list stays within its cap.
func TestRealGoReuseHammer(t *testing.T) {
	k := NewReal(1)
	defer k.Stop()
	const spawners, each, inFlight = 4, 400, 8
	var ran atomic.Int32
	for i := 0; i < spawners; i++ {
		k.Go("spawner", func(tk Task) {
			done := k.NewEvent("done")
			for j := 0; j < each; j++ {
				k.Go("child", func(ct Task) {
					if ct.Name() != "child" {
						t.Errorf("task named %q, want child", ct.Name())
					}
					ran.Add(1)
					done.Signal()
				})
				if j%inFlight == inFlight-1 {
					for range inFlight {
						done.Wait(tk)
					}
				}
			}
		})
	}
	_ = k.Run()
	if got := ran.Load(); got != spawners*each {
		t.Fatalf("%d tasks ran, want %d", got, spawners*each)
	}
	if idle := idleCount(k); idle > maxIdle {
		t.Fatalf("%d goroutines parked, cap %d", idle, maxIdle)
	}
}

func idleCount(k *RKernel) int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.idle)
}

// TestRealRandDrawsTheSeededSequence pins that guarding the real
// kernel's source leaves its draws those of the bare seeded source.
func TestRealRandDrawsTheSeededSequence(t *testing.T) {
	got, want := NewReal(7).Rand(), rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("draw %d: Int63 %d, want %d", i, g, w)
		}
		if g, w := got.Intn(1000), want.Intn(1000); g != w {
			t.Fatalf("draw %d: Intn %d, want %d", i, g, w)
		}
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("draw %d: Uint64 %d, want %d", i, g, w)
		}
	}
}

// pingPong runs rounds signal/wait round trips between two tasks of k:
// the caller's side runs body around each round, on its own task.
func pingPong(k *RKernel, rounds int, body func(round func())) {
	ping, pong := k.NewEvent("ping"), k.NewEvent("pong")
	k.Go("pong", func(tk Task) {
		for i := 0; i < rounds; i++ {
			ping.Wait(tk)
			pong.Signal()
		}
	})
	done := make(chan struct{})
	k.Go("ping", func(tk Task) {
		defer close(done)
		body(func() {
			ping.Signal()
			pong.Wait(tk)
		})
	})
	<-done
}

// BenchmarkRKernelEvent times one signal/wait round trip between two
// real-kernel tasks: two event hand-offs, each a goroutine wake-up.
func BenchmarkRKernelEvent(b *testing.B) {
	b.ReportAllocs()
	pingPong(NewReal(1), b.N, func(round func()) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			round()
		}
	})
}

// condPingPong is pingPong over one kernel mutex and cond: each round
// the two tasks hand a turn flag to each other and back, each waking
// the other through the cond.
func condPingPong(k *RKernel, rounds int, body func(round func())) {
	m, c := k.NewMutex("m"), k.NewCond("c")
	pongs := false // whose turn: pong's when true
	k.Go("pong", func(tk Task) {
		m.Lock(tk)
		for i := 0; i < rounds; i++ {
			for !pongs {
				c.Wait(tk, m)
			}
			pongs = false
			c.Signal()
		}
		m.Unlock(tk)
	})
	done := make(chan struct{})
	k.Go("ping", func(tk Task) {
		defer close(done)
		body(func() {
			m.Lock(tk)
			pongs = true
			c.Signal()
			for pongs {
				c.Wait(tk, m)
			}
			m.Unlock(tk)
		})
	})
	<-done
}

// An event or cond hand-off allocates nothing on the real kernel: the
// sync.Cond is the primitive's own and a wake-up reuses the runtime's
// waiter records.
func TestRKernelEventAllocatesNothing(t *testing.T) {
	const runs = 1000
	for _, tc := range []struct {
		name     string
		pingPong func(k *RKernel, rounds int, body func(round func()))
	}{{"event", pingPong}, {"cond", condPingPong}} {
		var allocs float64
		tc.pingPong(NewReal(1), runs+1, func(round func()) {
			allocs = testing.AllocsPerRun(runs, round)
		})
		if allocs != 0 {
			t.Fatalf("%s: %v allocs per ping-pong round trip, want 0", tc.name, allocs)
		}
	}
}
