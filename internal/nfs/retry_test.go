package nfs

import (
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fsys"
	"repro/internal/xdr"
)

// fakeTransport is a scriptable server stand-in for the retry layer:
// failBefore injects a transport error before the call reaches the
// "server", failAfter injects one after it executed (the ambiguous
// case), and anything else executes against canned replies. calls
// counts attempts seen, executed counts calls that took effect.
type fakeTransport struct {
	mu       sync.Mutex
	calls    map[uint32]int
	executed map[uint32]int
	// failBefore(proc, n) returns a transport error to inject on the
	// n-th attempt (0-based) of proc, before execution. failAfter is
	// the same but after execution. status returns a non-OK reply.
	failBefore func(proc uint32, n int) error
	failAfter  func(proc uint32, n int) error
	status     func(proc uint32, n int) error
}

func newFakeTransport() *fakeTransport {
	return &fakeTransport{calls: map[uint32]int{}, executed: map[uint32]int{}}
}

func (f *fakeTransport) call(proc uint32, args func(*xdr.Encoder)) (xdr.Decoder, error) {
	f.mu.Lock()
	n := f.calls[proc]
	f.calls[proc]++
	f.mu.Unlock()
	if f.failBefore != nil {
		if err := f.failBefore(proc, n); err != nil {
			return xdr.Decoder{}, err
		}
	}
	if f.status != nil {
		if err := f.status(proc, n); err != nil {
			return xdr.Decoder{}, statusError{err}
		}
	}
	f.mu.Lock()
	f.executed[proc]++
	f.mu.Unlock()
	if f.failAfter != nil {
		if err := f.failAfter(proc, n); err != nil {
			return xdr.Decoder{}, err
		}
	}
	// A canned empty-attr reply body satisfies every decoder the
	// tests below exercise (Null decodes nothing).
	e := xdr.NewEncoder()
	encodeFH(e, FH{Vol: 1, File: 2, Gen: 3})
	encodeAttr(e, fsys.FileAttr{})
	return *xdr.NewDecoder(e.Bytes()), nil
}

func (f *fakeTransport) close() error { return nil }

func (f *fakeTransport) count(proc uint32) (calls, executed int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls[proc], f.executed[proc]
}

func retryOver(f *fakeTransport, cfg RetryConfig) *Client {
	cfg = cfg.withDefaults()
	cfg.Backoff = time.Microsecond
	cfg.MaxBackoff = 10 * time.Microsecond
	cfg.Seed = 1
	rt := newRetryTransport(func() (transport, error) { return f, nil }, cfg)
	return &Client{tr: rt}
}

// TestRetryIdempotentConverges drives an idempotent call through a
// transport that fails two of every three attempts: the client must
// converge without surfacing an error, with the reissues counted.
func TestRetryIdempotentConverges(t *testing.T) {
	f := newFakeTransport()
	f.failBefore = func(proc uint32, n int) error {
		if n%3 != 2 {
			return io.ErrUnexpectedEOF
		}
		return nil
	}
	cl := retryOver(f, RetryConfig{Attempts: 4})
	for i := 0; i < 5; i++ {
		if err := cl.Null(); err != nil {
			t.Fatalf("null %d through flaky transport: %v", i, err)
		}
		if _, err := cl.Getattr(FH{Vol: 1, File: 2, Gen: 3}); err != nil {
			t.Fatalf("getattr %d through flaky transport: %v", i, err)
		}
	}
	_, reissues := cl.RetryStats()
	if reissues == 0 {
		t.Fatalf("flaky transport survived without reissues")
	}
	if calls, executed := f.count(ProcGetattr); executed != 5 || calls != 15 {
		t.Fatalf("getattr calls=%d executed=%d, want 15/5", calls, executed)
	}
}

// TestRetryExhaustsAttempts pins the bound: a permanently failing
// transport surfaces the last transport error after cfg.Attempts
// tries, not an infinite loop.
func TestRetryExhaustsAttempts(t *testing.T) {
	f := newFakeTransport()
	f.failBefore = func(uint32, int) error { return io.ErrUnexpectedEOF }
	cl := retryOver(f, RetryConfig{Attempts: 3})
	if err := cl.Null(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("exhausted retry returned %v, want ErrUnexpectedEOF", err)
	}
	if calls, _ := f.count(ProcNull); calls != 3 {
		t.Fatalf("dead transport tried %d times, want 3", calls)
	}
}

// TestRetryNonIdempotentNotReissued is the double-apply guard: a
// Create whose reply frame is lost (the call executed server-side)
// must surface the transport error without a reissue.
func TestRetryNonIdempotentNotReissued(t *testing.T) {
	f := newFakeTransport()
	f.failAfter = func(proc uint32, n int) error {
		if proc == ProcCreate && n == 0 {
			return io.ErrUnexpectedEOF
		}
		return nil
	}
	cl := retryOver(f, RetryConfig{Attempts: 4})
	if _, _, err := cl.Create(FH{Vol: 1, File: 1, Gen: 1}, "x"); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("lost create reply returned %v, want the transport error", err)
	}
	if calls, executed := f.count(ProcCreate); calls != 1 || executed != 1 {
		t.Fatalf("create calls=%d executed=%d, want exactly one (no blind reissue)", calls, executed)
	}
	// The same failure on an idempotent Write IS reissued: an
	// absolute-offset overwrite converges when applied twice.
	f.failAfter = func(proc uint32, n int) error {
		if proc == ProcWrite && n == 0 {
			return io.ErrUnexpectedEOF
		}
		return nil
	}
	if _, err := cl.Write(FH{Vol: 1, File: 2, Gen: 3}, 0, []byte("a")); err != nil {
		t.Fatalf("write through lost reply: %v", err)
	}
	if calls, executed := f.count(ProcWrite); calls != 2 || executed != 2 {
		t.Fatalf("write calls=%d executed=%d, want 2/2 (reissued once)", calls, executed)
	}
}

// TestRetryStatusErrorsNotRetried pins the execution-vs-transport
// split: a server answer — even an error answer — means the call ran,
// so it must come back on the first attempt with the core sentinel
// intact through the wrapper.
func TestRetryStatusErrorsNotRetried(t *testing.T) {
	f := newFakeTransport()
	f.status = func(proc uint32, n int) error {
		if proc == ProcLookup {
			return core.ErrNotFound
		}
		return nil
	}
	cl := retryOver(f, RetryConfig{Attempts: 4})
	if _, _, err := cl.Lookup(FH{Vol: 1, File: 1, Gen: 1}, "ghost"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("lookup returned %v, want ErrNotFound through the retry layer", err)
	}
	if calls, _ := f.count(ProcLookup); calls != 1 {
		t.Fatalf("status error retried: %d calls, want 1", calls)
	}
}

// TestRetryRedials proves a failed transport is dropped and the next
// call dials fresh — the recovery path a server restart exercises.
func TestRetryRedials(t *testing.T) {
	f := newFakeTransport()
	dead := true
	f.failBefore = func(uint32, int) error {
		if dead {
			return io.ErrUnexpectedEOF
		}
		return nil
	}
	var dials int
	rt := newRetryTransport(func() (transport, error) { dials++; return f, nil },
		RetryConfig{Attempts: 2, Backoff: time.Microsecond, MaxBackoff: time.Microsecond, Seed: 1}.withDefaults())
	cl := &Client{tr: rt}
	if err := cl.Null(); err == nil {
		t.Fatalf("dead transport did not surface an error")
	}
	dead = false
	if err := cl.Null(); err != nil {
		t.Fatalf("null after revival: %v", err)
	}
	redials, _ := cl.RetryStats()
	if dials < 2 || redials == 0 {
		t.Fatalf("dials=%d redials=%d, want a fresh dial after the drop", dials, redials)
	}
}
