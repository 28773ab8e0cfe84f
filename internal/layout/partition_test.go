package layout

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/sched"
)

// A partition write on the real kernel allocates nothing once warm:
// the request comes from the partition's pool and goes back zeroed,
// and the driver recycles its completion event.
func TestPartitionWriteAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops lent requests under -race")
	}
	k := sched.NewReal(1)
	defer k.Stop()
	drv := device.NewMemDriver(k, "m", 64, nil)
	defer drv.Close()
	p := NewPartition(drv, 0, 0, 64, false)
	data := bytes.Repeat([]byte{0x3C}, 4*core.BlockSize)
	var allocs float64
	done := make(chan struct{})
	k.Go("w", func(tk sched.Task) {
		defer close(done)
		allocs = testing.AllocsPerRun(200, func() {
			if err := p.Write(tk, 8, 4, data); err != nil {
				t.Error(err)
			}
		})
	})
	<-done
	if allocs != 0 {
		t.Fatalf("Partition.Write: %v allocs/op, want 0", allocs)
	}
}

// ReadRun hands the caller's segments to the driver as they are, so
// the driver's vector check still rejects a segment of the wrong
// length.
func TestReadRunRejectsShortSegment(t *testing.T) {
	k := sched.NewReal(1)
	defer k.Stop()
	drv := device.NewMemDriver(k, "m", 64, nil)
	defer drv.Close()
	p := NewPartition(drv, 0, 0, 64, false)
	bufs := [][]byte{make([]byte, core.BlockSize), make([]byte, core.BlockSize-1)}
	done := make(chan error, 1)
	k.Go("r", func(tk sched.Task) { done <- p.ReadRun(tk, 0, 2, bufs) })
	if err := <-done; err == nil {
		t.Fatal("ReadRun accepted a segment shorter than a block")
	}
}
