package bus

import (
	"testing"
	"time"

	"repro/internal/sched"
)

func TestWireTime(t *testing.T) {
	k := sched.NewVirtual(1)
	b := New(k, SCSI2("scsi0"))
	// 10 MB at 10 MB/s is one second plus the per-message cost.
	got := b.WireTime(10 << 20)
	want := time.Second + 100*time.Microsecond
	if got != want {
		t.Fatalf("WireTime(10MB) = %v, want %v", got, want)
	}
}

func TestSendDelaysSender(t *testing.T) {
	k := sched.NewVirtual(1)
	b := New(k, SCSI2("scsi0"))
	var took time.Duration
	k.Go("sender", func(tk sched.Task) {
		start := k.Now()
		b.Send(tk, 1<<20) // 1 MB ≈ 100 ms on a 10 MB/s bus
		took = k.Now().Sub(start)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if took < 100*time.Millisecond || took > 105*time.Millisecond {
		t.Fatalf("1MB send took %v, want ≈100ms", took)
	}
}

func TestContentionSerializes(t *testing.T) {
	k := sched.NewVirtual(7)
	b := New(k, SCSI2("scsi0"))
	var finished []time.Duration
	for i := 0; i < 3; i++ {
		k.Go("xfer", func(tk sched.Task) {
			b.Send(tk, 1<<20)
			finished = append(finished, time.Duration(k.Now()))
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(finished) != 3 {
		t.Fatalf("finished %d transfers", len(finished))
	}
	// Three 1 MB transfers must serialize: last ends ≈ 300 ms.
	last := finished[2]
	if last < 300*time.Millisecond {
		t.Fatalf("transfers overlapped: last finished at %v", last)
	}
}

func TestDefaultBandwidthApplied(t *testing.T) {
	k := sched.NewVirtual(1)
	b := New(k, Params{Name: "x"}) // zero bandwidth gets the default
	if b.WireTime(10<<20) > 2*time.Second {
		t.Fatal("default bandwidth not applied")
	}
}
