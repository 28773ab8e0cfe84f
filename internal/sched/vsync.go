package sched

import (
	"container/heap"
	"fmt"
	"time"
)

// vevent is the virtual kernel's counting event. All state is
// manipulated by the single running task or the scheduler loop, so
// no locking is needed.
type vevent struct {
	k       *VKernel
	name    string
	count   int
	waiters []*vtask
}

// NewEvent creates a counting event.
func (k *VKernel) NewEvent(name string) Event {
	return &vevent{k: k, name: name}
}

// Wait consumes one signal, blocking until available.
func (e *vevent) Wait(t Task) {
	vt := t.(*vtask)
	if e.count > 0 {
		e.count--
		return
	}
	e.waiters = append(e.waiters, vt)
	vt.block("", e.name)
	if !vt.signaled {
		panic(fmt.Sprintf("sched: task %s woke from event %s without signal", vt.name, e.name))
	}
	vt.signaled = false
}

// WaitTimeout consumes one signal or gives up after d.
func (e *vevent) WaitTimeout(t Task, d time.Duration) bool {
	vt := t.(*vtask)
	if e.count > 0 {
		e.count--
		return true
	}
	if d <= 0 {
		return false
	}
	e.waiters = append(e.waiters, vt)
	vt.state = vSleeping
	vt.wakeAt = e.k.now.Add(d)
	heap.Push(&e.k.timers, vt)
	vt.waitOn = e.name
	vt.park()
	vt.waitOn = ""
	if vt.signaled {
		vt.signaled = false
		return true
	}
	// Timed out: the scheduler popped the timer; leave the wait
	// queue ourselves.
	e.removeWaiter(vt)
	return false
}

// Signal releases one waiter, or banks the signal if none wait.
func (e *vevent) Signal() {
	if len(e.waiters) == 0 {
		e.count++
		return
	}
	e.wake(0)
}

// Broadcast wakes every current waiter without banking signals.
func (e *vevent) Broadcast() {
	for len(e.waiters) > 0 {
		e.wake(0)
	}
}

// wake readies waiter i as signaled, detaching any pending timeout.
func (e *vevent) wake(i int) {
	vt := e.waiters[i]
	e.waiters = append(e.waiters[:i], e.waiters[i+1:]...)
	if vt.timerI >= 0 {
		heap.Remove(&e.k.timers, vt.timerI)
	}
	vt.signaled = true
	e.k.ready(vt)
}

func (e *vevent) removeWaiter(vt *vtask) {
	for i, w := range e.waiters {
		if w == vt {
			e.waiters = append(e.waiters[:i], e.waiters[i+1:]...)
			return
		}
	}
}

// vmutex is the virtual kernel's mutex with FIFO hand-off and owner
// checking.
type vmutex struct {
	k       *VKernel
	name    string
	owner   *vtask
	waiters []*vtask
}

// NewMutex creates a mutex.
func (k *VKernel) NewMutex(name string) Mutex {
	return &vmutex{k: k, name: name}
}

// Lock acquires the mutex, blocking while another task owns it.
func (m *vmutex) Lock(t Task) {
	vt := t.(*vtask)
	if m.owner == nil {
		m.owner = vt
		return
	}
	if m.owner == vt {
		panic(fmt.Sprintf("sched: task %s relocking mutex %s", vt.name, m.name))
	}
	m.waiters = append(m.waiters, vt)
	vt.block("mutex ", m.name)
	if m.owner != vt {
		panic(fmt.Sprintf("sched: mutex %s hand-off failed", m.name))
	}
}

// Unlock releases the mutex, handing it to the oldest waiter.
func (m *vmutex) Unlock(t Task) {
	vt := t.(*vtask)
	if m.owner != vt {
		panic(fmt.Sprintf("sched: task %s unlocking mutex %s owned by %v", vt.name, m.name, ownerName(m.owner)))
	}
	if len(m.waiters) == 0 {
		m.owner = nil
		return
	}
	next := m.waiters[0]
	m.waiters = m.waiters[1:]
	m.owner = next
	m.k.ready(next)
}

func ownerName(t *vtask) string {
	if t == nil {
		return "<nobody>"
	}
	return t.name
}

// vcond is the virtual kernel's condition variable.
type vcond struct {
	k       *VKernel
	name    string
	waiters []condWaiter
}

type condWaiter struct {
	t *vtask
	m Mutex
}

// NewCond creates a condition variable.
func (k *VKernel) NewCond(name string) Cond {
	return &vcond{k: k, name: name}
}

// Wait releases m, blocks, and reacquires m before returning.
func (c *vcond) Wait(t Task, m Mutex) {
	vt := t.(*vtask)
	m.Unlock(t)
	c.waiters = append(c.waiters, condWaiter{vt, m})
	vt.block("cond ", c.name)
	m.Lock(t)
}

// Signal wakes the oldest waiter.
func (c *vcond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	w := c.waiters[0]
	n := copy(c.waiters, c.waiters[1:])
	c.waiters[n] = condWaiter{}
	c.waiters = c.waiters[:n]
	c.k.ready(w.t)
}

// Broadcast wakes every waiter. The waiter list keeps its backing
// array, so a cond waited on over and over allocates nothing.
func (c *vcond) Broadcast() {
	for _, w := range c.waiters {
		c.k.ready(w.t)
	}
	clear(c.waiters)
	c.waiters = c.waiters[:0]
}
