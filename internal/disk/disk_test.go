package disk

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sched"
)

// nullConn is a free connection for tests that do not model the bus.
type nullConn struct{}

func (nullConn) Send(sched.Task, int64) {}

func newTestDisk(seed int64, p Params) (*sched.VKernel, *Disk) {
	k := sched.NewVirtual(seed)
	d := New(k, p, nullConn{})
	d.Start()
	return k, d
}

// doIO runs one request through the disk and returns its latency.
func doIO(t *testing.T, k *sched.VKernel, d *Disk, op Op, lba int64, sectors int) time.Duration {
	t.Helper()
	var lat time.Duration
	k.Go("host", func(tk sched.Task) {
		r := &IOReq{Op: op, LBA: lba, Sectors: sectors, Done: k.NewEvent("done")}
		start := k.Now()
		d.Submit(tk, r)
		r.Done.Wait(tk)
		lat = k.Now().Sub(start)
		k.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return lat
}

func TestHP97560Capacity(t *testing.T) {
	_, d := newTestDisk(1, HP97560("d0"))
	want := int64(1962 * 19 * 72)
	if d.CapacitySectors() != want {
		t.Fatalf("capacity = %d sectors, want %d", d.CapacitySectors(), want)
	}
	if d.CapacityBlocks() != want/8 {
		t.Fatalf("blocks = %d", d.CapacityBlocks())
	}
}

func TestRotationPeriod(t *testing.T) {
	_, d := newTestDisk(1, HP97560("d0"))
	// 4002 rpm → 14.992 ms per revolution.
	p := d.RotationPeriod()
	if p < 14900*time.Microsecond || p > 15000*time.Microsecond {
		t.Fatalf("rotation period = %v, want ≈14.99ms", p)
	}
}

func TestSeekCurve(t *testing.T) {
	_, d := newTestDisk(1, HP97560("d0"))
	if d.SeekTime(0) != 0 {
		t.Fatalf("zero-distance seek = %v", d.SeekTime(0))
	}
	// Short seek: 3.24 + 0.4*sqrt(100) = 7.24 ms.
	if got := d.SeekTime(100); got < 7230*time.Microsecond || got > 7250*time.Microsecond {
		t.Fatalf("SeekTime(100) = %v, want ≈7.24ms", got)
	}
	// Long seek: 8.00 + 0.008*1000 = 16 ms.
	if got := d.SeekTime(1000); got < 15990*time.Microsecond || got > 16010*time.Microsecond {
		t.Fatalf("SeekTime(1000) = %v, want ≈16ms", got)
	}
	// Symmetric in direction.
	if d.SeekTime(-100) != d.SeekTime(100) {
		t.Fatal("seek not symmetric")
	}
	// Monotone nondecreasing.
	prev := time.Duration(0)
	for dist := 0; dist < 1962; dist += 13 {
		s := d.SeekTime(dist)
		if s < prev {
			t.Fatalf("seek curve decreasing at %d", dist)
		}
		prev = s
	}
}

func TestLocateRoundTrip(t *testing.T) {
	_, d := newTestDisk(1, HP97560("d0"))
	prop := func(raw uint32) bool {
		lba := int64(raw) % d.CapacitySectors()
		cyl, head, sector := d.locate(lba)
		if cyl < 0 || cyl >= d.p.Cylinders || head < 0 || head >= d.p.Heads ||
			sector < 0 || sector >= d.p.SectorsPerTrack {
			return false
		}
		back := (int64(cyl)*int64(d.p.Heads)+int64(head))*int64(d.p.SectorsPerTrack) + int64(sector)
		return back == lba
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReadLatencyWindow(t *testing.T) {
	k, d := newTestDisk(3, HP97560("d0"))
	lat := doIO(t, k, d, Read, 123456, 8) // one 4KB block
	// Floor: controller overhead (2 ms). Ceiling for a single read
	// from cylinder 0: seek (≤ ~23.7ms) + rotation (≤ 15ms) +
	// transfer + overhead. Use a generous bound.
	if lat < 2*time.Millisecond {
		t.Fatalf("read latency %v below controller overhead", lat)
	}
	if lat > 45*time.Millisecond {
		t.Fatalf("single read latency %v implausibly high", lat)
	}
}

func TestSequentialReadHitsCache(t *testing.T) {
	p := HP97560("d0")
	k := sched.NewVirtual(5)
	d := New(k, p, nullConn{})
	d.Start()
	var first, second time.Duration
	k.Go("host", func(tk sched.Task) {
		r1 := &IOReq{Op: Read, LBA: 1000, Sectors: 8, Done: k.NewEvent("d1")}
		t0 := k.Now()
		d.Submit(tk, r1)
		r1.Done.Wait(tk)
		first = k.Now().Sub(t0)
		tk.Sleep(20 * time.Millisecond) // give the drive its idle read-ahead
		r2 := &IOReq{Op: Read, LBA: 1008, Sectors: 8, Done: k.NewEvent("d2")}
		t1 := k.Now()
		d.Submit(tk, r2)
		r2.Done.Wait(tk)
		second = k.Now().Sub(t1)
		if !r2.CacheHit {
			t.Error("sequential read missed the read-ahead cache")
		}
		k.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if second >= first {
		t.Fatalf("cached read (%v) not faster than cold read (%v)", second, first)
	}
	if second > 4*time.Millisecond {
		t.Fatalf("cache-hit read took %v, want ≈ controller overhead", second)
	}
}

func TestImmediateReportWriteFast(t *testing.T) {
	k, d := newTestDisk(7, HP97560("d0"))
	lat := doIO(t, k, d, Write, 500000, 8)
	// Immediate-report completes before any mechanism work.
	if lat > time.Millisecond {
		t.Fatalf("immediate-reported write took %v", lat)
	}
}

func TestWriteWithoutImmediateReport(t *testing.T) {
	p := HP97560("d0")
	p.ImmediateReport = false
	k, d := newTestDisk(7, p)
	lat := doIO(t, k, d, Write, 500000, 8)
	if lat < 2*time.Millisecond {
		t.Fatalf("synchronous write took %v, below overhead", lat)
	}
}

func TestImmediateReportCacheFills(t *testing.T) {
	// 128 KB cache = 32 blocks of 4 KB. Burst 64 block writes: the
	// first ≈32 immediate-report; later ones must wait for destage,
	// visible as mechanism-bound completion of the burst.
	p := HP97560("d0")
	k := sched.NewVirtual(11)
	d := New(k, p, nullConn{})
	d.Start()
	imm := 0
	k.Go("host", func(tk sched.Task) {
		for i := 0; i < 64; i++ {
			r := &IOReq{Op: Write, LBA: int64(1000 + i*8), Sectors: 8, Done: k.NewEvent("w")}
			d.Submit(tk, r)
			r.Done.Wait(tk)
			if r.CacheHit {
				imm++
			}
		}
		k.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if imm == 0 || imm == 64 {
		t.Fatalf("immediate reports = %d of 64; cache limit not exercised", imm)
	}
}

func TestNaiveModelFlat(t *testing.T) {
	p := Naive("naive0", 10*time.Millisecond)
	k, d := newTestDisk(13, p)
	near := doIO(t, k, d, Read, 100, 8)
	k2, d2 := newTestDisk(13, p)
	far := doIO(t, k2, d2, Read, d2.CapacitySectors()-100, 8)
	diff := near - far
	if diff < 0 {
		diff = -diff
	}
	if diff > time.Millisecond {
		t.Fatalf("naive model position-dependent: near=%v far=%v", near, far)
	}
}

func TestRotWaitBounds(t *testing.T) {
	_, d := newTestDisk(1, HP97560("d0"))
	rev := d.RotationPeriod()
	for now := sched.Time(0); now < sched.Time(3*rev); now += sched.Time(rev / 7) {
		for p := 0; p < d.p.SectorsPerTrack; p += 5 {
			w := d.rotWait(now, p)
			if w < 0 || w >= rev {
				t.Fatalf("rotWait(%v, %d) = %v outside [0, rev)", now, p, w)
			}
		}
	}
}

func TestDiskStatsRegister(t *testing.T) {
	k, d := newTestDisk(1, HP97560("d0"))
	doIO(t, k, d, Read, 4096, 8)
	if d.BusyTime() == 0 {
		t.Fatal("busy time not accounted")
	}
	if d.String() == "" {
		t.Fatal("empty description")
	}
}

func TestMultiTrackTransfer(t *testing.T) {
	// A request larger than one track must cross heads and still
	// complete with sane timing.
	k, d := newTestDisk(17, HP97560("d0"))
	lat := doIO(t, k, d, Read, 0, 200) // 200 sectors ≈ 2.8 tracks
	min := time.Duration(200) * d.sectorTime()
	if lat < min {
		t.Fatalf("multi-track read %v faster than media rate %v", lat, min)
	}
	if lat > 150*time.Millisecond {
		t.Fatalf("multi-track read %v implausibly slow", lat)
	}
}
