package device

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/sched"
)

func req(lba int64) *Request {
	return &Request{Op: OpRead, Addr: core.DiskAddr{Disk: 0, LBA: lba}, Blocks: 1}
}

func popAll(q Scheduler, head int64) []int64 {
	var out []int64
	for q.Len() > 0 {
		r := q.Pop(head)
		out = append(out, r.Addr.LBA)
		head = r.Addr.LBA
	}
	return out
}

func TestFCFSOrder(t *testing.T) {
	q := &FCFS{}
	for _, lba := range []int64{5, 1, 9, 3} {
		q.Push(req(lba))
	}
	got := popAll(q, 0)
	if fmt.Sprint(got) != "[5 1 9 3]" {
		t.Fatalf("FCFS order %v", got)
	}
}

func TestCLOOKSweepAndWrap(t *testing.T) {
	q := &CLOOK{}
	for _, lba := range []int64{10, 50, 20, 5, 80} {
		q.Push(req(lba))
	}
	// Head at 15: ascending from 15, then wrap to the lowest.
	got := popAll(q, 15)
	if fmt.Sprint(got) != "[20 50 80 5 10]" {
		t.Fatalf("C-LOOK order %v, want [20 50 80 5 10]", got)
	}
}

func TestLOOKElevator(t *testing.T) {
	q := &LOOK{}
	for _, lba := range []int64{10, 50, 20, 5, 80} {
		q.Push(req(lba))
	}
	// Head at 15 going up: 20 50 80, reverse: 10 5.
	got := popAll(q, 15)
	if fmt.Sprint(got) != "[20 50 80 10 5]" {
		t.Fatalf("LOOK order %v, want [20 50 80 10 5]", got)
	}
}

func TestSSTFNearest(t *testing.T) {
	q := &SSTF{}
	for _, lba := range []int64{100, 30, 40, 90} {
		q.Push(req(lba))
	}
	got := popAll(q, 35)
	// From 35: 30 or 40 tie-ish (40-35=5, 35-30=5; firstAtOrAbove
	// picks 40 when up distance <= down). Then greedy nearest.
	if fmt.Sprint(got) != "[40 30 90 100]" && fmt.Sprint(got) != "[30 40 90 100]" {
		t.Fatalf("SSTF order %v", got)
	}
}

func TestScanEDFDeadlinesFirst(t *testing.T) {
	q := &ScanEDF{Quantum: sched.Time(10 * time.Millisecond)}
	a := req(100)
	b := req(10)
	b.Deadline = sched.Time(5 * time.Millisecond)
	c := req(50)
	c.Deadline = sched.Time(200 * time.Millisecond)
	q.Push(a)
	q.Push(b)
	q.Push(c)
	got := popAll(q, 0)
	if fmt.Sprint(got) != "[10 50 100]" {
		t.Fatalf("scan-EDF order %v, want deadline order [10 50 100]", got)
	}
}

func TestScanEDFSameQuantumUsesScan(t *testing.T) {
	q := &ScanEDF{Quantum: sched.Time(time.Second)}
	a := req(80)
	a.Deadline = sched.Time(10 * time.Millisecond)
	b := req(20)
	b.Deadline = sched.Time(400 * time.Millisecond) // same 1s bucket
	q.Push(a)
	q.Push(b)
	got := popAll(q, 0)
	if fmt.Sprint(got) != "[20 80]" {
		t.Fatalf("same-quantum order %v, want scan order [20 80]", got)
	}
}

func TestNewSchedulerNames(t *testing.T) {
	for _, name := range []string{"fcfs", "sstf", "look", "scan", "clook", "cscan", "scan-edf"} {
		q, ok := NewScheduler(name)
		if !ok || q == nil {
			t.Fatalf("NewScheduler(%q) failed", name)
		}
	}
	if _, ok := NewScheduler("nope"); ok {
		t.Fatal("unknown scheduler accepted")
	}
}

// TestPopForgetsServedRequests: a served request must not stay
// reachable from the queue's backing array, or a closed server's
// driver keeps that request's buffers (cache frames) alive.
func TestPopForgetsServedRequests(t *testing.T) {
	for _, name := range []string{"sstf", "look", "clook", "cscan", "scan-edf"} {
		q, _ := NewScheduler(name)
		for _, lba := range []int64{40, 10, 30, 20} {
			q.Push(req(lba))
		}
		popAll(q, 25)
		var reqs []*Request
		switch q := q.(type) {
		case *SSTF:
			reqs = q.reqs
		case *LOOK:
			reqs = q.reqs
		case *CLOOK:
			reqs = q.reqs
		case *CSCAN:
			reqs = q.reqs
		case *ScanEDF:
			reqs = q.reqs
		}
		for i, r := range reqs[:cap(reqs)] {
			if r != nil {
				t.Errorf("%s: slot %d still holds the request at LBA %d", name, i, r.Addr.LBA)
			}
		}
	}
}

func TestSimDriverCompletesRequests(t *testing.T) {
	k := sched.NewVirtual(21)
	b := bus.New(k, bus.SCSI2("scsi0"))
	dsk := disk.New(k, disk.HP97560("d0"), b)
	dsk.Start()
	drv := NewSimDriver(k, "drv0", dsk, b, nil)
	var lat time.Duration
	k.Go("fs", func(tk sched.Task) {
		r := &Request{Op: OpRead, Addr: core.DiskAddr{LBA: 5000}, Blocks: 2}
		start := k.Now()
		if err := drv.Do(tk, r); err != nil {
			t.Errorf("Do: %v", err)
		}
		lat = k.Now().Sub(start)
		k.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if lat < 2*time.Millisecond || lat > 50*time.Millisecond {
		t.Fatalf("sim read latency %v out of plausible window", lat)
	}
	st := drv.DriverStats()
	if st.Reads.Value() != 1 || st.BlocksRead.Value() != 2 {
		t.Fatalf("stats reads=%d blocks=%d", st.Reads.Value(), st.BlocksRead.Value())
	}
}

func TestSimDriverQueueBuildsUnderLoad(t *testing.T) {
	k := sched.NewVirtual(23)
	b := bus.New(k, bus.SCSI2("scsi0"))
	dsk := disk.New(k, disk.HP97560("d0"), b)
	dsk.Start()
	drv := NewSimDriver(k, "drv0", dsk, b, nil)
	done := 0
	for i := 0; i < 20; i++ {
		lba := int64(i * 37777)
		k.Go("client", func(tk sched.Task) {
			r := &Request{Op: OpRead, Addr: core.DiskAddr{LBA: lba % dsk.CapacityBlocks()}, Blocks: 1}
			drv.Do(tk, r)
			done++
			if done == 20 {
				k.Stop()
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 20 {
		t.Fatalf("completed %d of 20", done)
	}
	// Under a burst the queue histogram must have seen depth > 1.
	h := drv.DriverStats().QueueHist
	if h.Total() != 20 {
		t.Fatalf("queue samples = %d", h.Total())
	}
	deep := int64(0)
	for i := 2; i < 9; i++ {
		deep += h.Bucket(i)
	}
	if deep == 0 {
		t.Fatal("burst never queued more than one request")
	}
}

func TestMemDriverRoundTrip(t *testing.T) {
	k := sched.NewVirtual(1)
	drv := NewMemDriver(k, "mem0", 128, nil)
	k.Go("fs", func(tk sched.Task) {
		out := bytes.Repeat([]byte{0xAB}, core.BlockSize)
		w := &Request{Op: OpWrite, Addr: core.DiskAddr{LBA: 7}, Blocks: 1, Data: out}
		if err := drv.Do(tk, w); err != nil {
			t.Errorf("write: %v", err)
		}
		in := make([]byte, core.BlockSize)
		r := &Request{Op: OpRead, Addr: core.DiskAddr{LBA: 7}, Blocks: 1, Data: in}
		if err := drv.Do(tk, r); err != nil {
			t.Errorf("read: %v", err)
		}
		if !bytes.Equal(in, out) {
			t.Error("round trip mismatch")
		}
		k.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMemDriverBoundsChecked(t *testing.T) {
	k := sched.NewVirtual(1)
	drv := NewMemDriver(k, "mem0", 4, nil)
	k.Go("fs", func(tk sched.Task) {
		r := &Request{Op: OpRead, Addr: core.DiskAddr{LBA: 99}, Blocks: 1,
			Data: make([]byte, core.BlockSize)}
		if err := drv.Do(tk, r); err == nil {
			t.Error("out-of-range read succeeded")
		}
		short := &Request{Op: OpWrite, Addr: core.DiskAddr{LBA: 0}, Blocks: 1, Data: []byte{1}}
		if err := drv.Do(tk, short); err == nil {
			t.Error("short buffer accepted")
		}
		k.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFileDriverPersists(t *testing.T) {
	k := sched.NewVirtual(1)
	path := filepath.Join(t.TempDir(), "disk.img")
	drv, err := NewFileDriver(k, "f0", path, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	if drv.CapacityBlocks() != 64 {
		t.Fatalf("capacity = %d", drv.CapacityBlocks())
	}
	k.Go("fs", func(tk sched.Task) {
		out := bytes.Repeat([]byte{0x5C}, core.BlockSize)
		if err := drv.Do(tk, &Request{Op: OpWrite, Addr: core.DiskAddr{LBA: 3}, Blocks: 1, Data: out}); err != nil {
			t.Errorf("write: %v", err)
		}
		in := make([]byte, core.BlockSize)
		if err := drv.Do(tk, &Request{Op: OpRead, Addr: core.DiskAddr{LBA: 3}, Blocks: 1, Data: in}); err != nil {
			t.Errorf("read: %v", err)
		}
		if !bytes.Equal(in, out) {
			t.Error("file round trip mismatch")
		}
		k.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestZeroBlockRequestPanics(t *testing.T) {
	k := sched.NewVirtual(1)
	drv := NewMemDriver(k, "mem0", 4, nil)
	caught := false
	k.Go("fs", func(tk sched.Task) {
		defer func() {
			if recover() != nil {
				caught = true
			}
			k.Stop()
		}()
		drv.Submit(tk, &Request{Op: OpRead, Addr: core.DiskAddr{LBA: 0}, Blocks: 0})
	})
	_ = k.Run()
	if !caught {
		t.Fatal("zero-block request accepted")
	}
}
