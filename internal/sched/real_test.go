package sched

import (
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
	if !(&RKernel{}).Virtual() == false {
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
