package device

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
)

// doIO runs one request through drv on a kernel task.
func doIO(t *testing.T, k *sched.RKernel, drv Driver, r *Request) error {
	t.Helper()
	errc := make(chan error, 1)
	k.Go("io", func(tk sched.Task) { errc <- drv.Do(tk, r) })
	return <-errc
}

func blockOf(b byte) []byte {
	buf := make([]byte, core.BlockSize)
	for i := range buf {
		buf[i] = b
	}
	return buf
}

// TestFaultPlanPowerCut checks the cut trips at exactly the Nth I/O,
// the tripping write is swallowed, and everything after fails without
// reaching the media.
func TestFaultPlanPowerCut(t *testing.T) {
	k := sched.NewReal(1)
	defer k.Stop()
	drv := NewMemDriver(k, "mem", 64, nil)
	plan := NewFaultPlan(FaultConfig{CutAfterIO: 3})
	drv.SetInjector(plan)

	var cutSeen bool
	plan.OnCut(func() { cutSeen = true })

	for i := 0; i < 2; i++ {
		r := &Request{Op: OpWrite, Addr: core.DiskAddr{LBA: int64(i)}, Blocks: 1, Data: blockOf(0xAA)}
		if err := doIO(t, k, drv, r); err != nil {
			t.Fatalf("pre-cut write %d: %v", i, err)
		}
	}
	r := &Request{Op: OpWrite, Addr: core.DiskAddr{LBA: 2}, Blocks: 1, Data: blockOf(0xBB)}
	if err := doIO(t, k, drv, r); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("cut write: err=%v, want ErrPowerCut", err)
	}
	if !cutSeen {
		t.Fatal("OnCut callback never ran")
	}
	// Post-cut: reads and writes fail, nothing reaches the media.
	if err := doIO(t, k, drv, &Request{Op: OpRead, Addr: core.DiskAddr{LBA: 0}, Blocks: 1, Data: make([]byte, core.BlockSize)}); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("post-cut read err=%v, want ErrPowerCut", err)
	}
	// Restore and verify the swallowed block never hit the media while
	// the pre-cut ones did.
	plan.Restore()
	chk := make([]byte, core.BlockSize)
	if err := doIO(t, k, drv, &Request{Op: OpRead, Addr: core.DiskAddr{LBA: 1}, Blocks: 1, Data: chk}); err != nil {
		t.Fatalf("restored read: %v", err)
	}
	if !bytes.Equal(chk, blockOf(0xAA)) {
		t.Fatal("pre-cut write lost")
	}
	if err := doIO(t, k, drv, &Request{Op: OpRead, Addr: core.DiskAddr{LBA: 2}, Blocks: 1, Data: chk}); err != nil {
		t.Fatalf("restored read: %v", err)
	}
	if bytes.Equal(chk, blockOf(0xBB)) {
		t.Fatal("cut write reached the media")
	}
}

// TestFaultPlanTornWrite checks a torn multi-block write persists
// exactly a non-empty proper prefix.
func TestFaultPlanTornWrite(t *testing.T) {
	k := sched.NewReal(1)
	defer k.Stop()
	drv := NewMemDriver(k, "mem", 64, nil)
	plan := NewFaultPlan(FaultConfig{Seed: 7, TornRate: 1})
	drv.SetInjector(plan)

	data := make([]byte, 8*core.BlockSize)
	for i := range data {
		data[i] = 0xCD
	}
	r := &Request{Op: OpWrite, Addr: core.DiskAddr{LBA: 8}, Blocks: 8, Data: data}
	if err := doIO(t, k, drv, r); !errors.Is(err, ErrTornWrite) {
		t.Fatalf("torn write err=%v, want ErrTornWrite", err)
	}
	drv.SetInjector(nil)
	written := 0
	chk := make([]byte, core.BlockSize)
	for b := 0; b < 8; b++ {
		if err := doIO(t, k, drv, &Request{Op: OpRead, Addr: core.DiskAddr{LBA: 8 + int64(b)}, Blocks: 1, Data: chk}); err != nil {
			t.Fatalf("read back: %v", err)
		}
		if chk[0] == 0xCD {
			if written != b {
				t.Fatalf("torn write left a hole before block %d", b)
			}
			written++
		}
	}
	if written == 0 || written == 8 {
		t.Fatalf("torn write persisted %d of 8 blocks, want a proper prefix", written)
	}
}

// TestFaultPlanTornVectoredWrite checks a torn vectored write
// persists exactly a non-empty proper prefix of the scatter-gather
// payload — including a tear that lands mid-segment, since the
// persisted prefix is counted in blocks while the vector's segments
// span several.
func TestFaultPlanTornVectoredWrite(t *testing.T) {
	k := sched.NewReal(1)
	defer k.Stop()
	drv := NewMemDriver(k, "mem", 64, nil)
	plan := NewFaultPlan(FaultConfig{Seed: 7, TornRate: 1})
	drv.SetInjector(plan)

	// 8 blocks in three uneven segments (3+1+4), each block carrying
	// its index, so most tear points fall inside a segment.
	payload := make([]byte, 8*core.BlockSize)
	for b := 0; b < 8; b++ {
		for i := 0; i < core.BlockSize; i++ {
			payload[b*core.BlockSize+i] = 0xC0 + byte(b)
		}
	}
	vec := [][]byte{
		payload[:3*core.BlockSize],
		payload[3*core.BlockSize : 4*core.BlockSize],
		payload[4*core.BlockSize:],
	}
	r := &Request{Op: OpWrite, Addr: core.DiskAddr{LBA: 8}, Blocks: 8, Vec: vec}
	if err := doIO(t, k, drv, r); !errors.Is(err, ErrTornWrite) {
		t.Fatalf("torn vectored write err=%v, want ErrTornWrite", err)
	}
	drv.SetInjector(nil)
	written := 0
	chk := make([]byte, core.BlockSize)
	for b := 0; b < 8; b++ {
		if err := doIO(t, k, drv, &Request{Op: OpRead, Addr: core.DiskAddr{LBA: 8 + int64(b)}, Blocks: 1, Data: chk}); err != nil {
			t.Fatalf("read back: %v", err)
		}
		if chk[0] == 0xC0+byte(b) {
			if written != b {
				t.Fatalf("torn vectored write left a hole before block %d", b)
			}
			if !bytes.Equal(chk, payload[b*core.BlockSize:(b+1)*core.BlockSize]) {
				t.Fatalf("block %d persisted with wrong content", b)
			}
			written++
		}
	}
	if written == 0 || written == 8 {
		t.Fatalf("torn vectored write persisted %d of 8 blocks, want a proper prefix", written)
	}
}

// TestFaultPlanTornVectoredSubBlock checks a sub-block tear of a
// single-block vectored write persists a byte prefix gathered across
// the vector's segments, with the rest of the block keeping its old
// content.
func TestFaultPlanTornVectoredSubBlock(t *testing.T) {
	k := sched.NewReal(1)
	defer k.Stop()
	drv := NewMemDriver(k, "mem", 64, nil)

	old := blockOf(0x11)
	if err := doIO(t, k, drv, &Request{Op: OpWrite, Addr: core.DiskAddr{LBA: 5}, Blocks: 1, Data: old}); err != nil {
		t.Fatalf("seed write: %v", err)
	}
	plan := NewFaultPlan(FaultConfig{Seed: 9, CutAfterIO: 1, CutTearsSubBlock: true})
	drv.SetInjector(plan)
	half := core.BlockSize / 2
	payload := make([]byte, core.BlockSize)
	for i := range payload {
		if i < half {
			payload[i] = 0xAA
		} else {
			payload[i] = 0xBB
		}
	}
	vec := [][]byte{payload[:half], payload[half:]}
	r := &Request{Op: OpWrite, Addr: core.DiskAddr{LBA: 5}, Blocks: 1, Vec: vec}
	if err := doIO(t, k, drv, r); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("sub-block torn vectored write err=%v, want ErrPowerCut", err)
	}
	plan.Restore()
	chk := make([]byte, core.BlockSize)
	if err := doIO(t, k, drv, &Request{Op: OpRead, Addr: core.DiskAddr{LBA: 5}, Blocks: 1, Data: chk}); err != nil {
		t.Fatalf("read back: %v", err)
	}
	tb := 0
	for tb < core.BlockSize && chk[tb] != 0x11 {
		tb++
	}
	if tb == 0 || tb == core.BlockSize {
		t.Fatalf("sub-block tear persisted %d bytes, want a proper prefix", tb)
	}
	if !bytes.Equal(chk[:tb], payload[:tb]) {
		t.Fatal("persisted prefix does not match the vectored payload")
	}
	for i := tb; i < core.BlockSize; i++ {
		if chk[i] != 0x11 {
			t.Fatalf("byte %d past the tear changed (got %#x)", i, chk[i])
		}
	}
}

// TestFaultPlanVectoredCountsOneIO checks the fault plan's I/O
// accounting treats one scatter-gather request as ONE I/O, however
// many segments it carries: CutAfterIO=3 must survive two vectored
// writes and trip exactly on the third request.
func TestFaultPlanVectoredCountsOneIO(t *testing.T) {
	k := sched.NewReal(1)
	defer k.Stop()
	drv := NewMemDriver(k, "mem", 64, nil)
	plan := NewFaultPlan(FaultConfig{CutAfterIO: 3})
	drv.SetInjector(plan)

	fourBlockVec := func() [][]byte {
		var vec [][]byte
		for b := 0; b < 4; b++ {
			vec = append(vec, blockOf(0xE0+byte(b)))
		}
		return vec
	}
	for i := 0; i < 2; i++ {
		r := &Request{Op: OpWrite, Addr: core.DiskAddr{LBA: int64(4 * i)}, Blocks: 4, Vec: fourBlockVec()}
		if err := doIO(t, k, drv, r); err != nil {
			t.Fatalf("vectored write %d (I/O %d of 3): %v", i, i+1, err)
		}
	}
	r := &Request{Op: OpWrite, Addr: core.DiskAddr{LBA: 8}, Blocks: 4, Vec: fourBlockVec()}
	if err := doIO(t, k, drv, r); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("third vectored request err=%v, want ErrPowerCut", err)
	}
	if got := plan.IOs(); got != 3 {
		t.Fatalf("IOs = %d, want 3 (a vectored request is one I/O)", got)
	}
}

// TestFaultPlanErrorRates checks injected errors fail requests
// without killing the stack, and rate 0 injects nothing.
func TestFaultPlanErrorRates(t *testing.T) {
	k := sched.NewReal(1)
	defer k.Stop()
	drv := NewMemDriver(k, "mem", 64, nil)
	plan := NewFaultPlan(FaultConfig{Seed: 3, ReadErrRate: 0.5})
	drv.SetInjector(plan)

	failed, passed := 0, 0
	for i := 0; i < 64; i++ {
		err := doIO(t, k, drv, &Request{Op: OpRead, Addr: core.DiskAddr{LBA: int64(i)}, Blocks: 1, Data: make([]byte, core.BlockSize)})
		switch {
		case err == nil:
			passed++
		case errors.Is(err, ErrInjected):
			failed++
		default:
			t.Fatalf("read %d: unexpected error %v", i, err)
		}
		// Writes are not subject to the read error rate.
		if err := doIO(t, k, drv, &Request{Op: OpWrite, Addr: core.DiskAddr{LBA: int64(i)}, Blocks: 1, Data: blockOf(1)}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if failed == 0 || passed == 0 {
		t.Fatalf("rate 0.5 over 64 reads: %d failed, %d passed", failed, passed)
	}
	if plan.HasCut() {
		t.Fatal("error rates must not trip the power cut")
	}
}
