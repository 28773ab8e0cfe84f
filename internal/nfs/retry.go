package nfs

import (
	"errors"
	"math/rand"
	"sync"
	"time"

	"repro/internal/xdr"
)

// Transient-fault retry. A server surviving a member death keeps
// serving, but the window around detection and repair can drop a TCP
// connection or stall a frame mid-flight. DialRetry wraps the plain
// transports with a bounded redial-and-reissue loop so clients ride
// through those blips instead of surfacing them.
//
// The classification discipline is strict:
//
//   - A status error (the server answered with a non-OK status) means
//     the call EXECUTED. It is returned immediately, never retried —
//     reissuing a Remove that answered "not found" would be wrong, and
//     reissuing one that answered "ok" would double-apply.
//   - A transport error (dial failure, frame read/write failure, xid
//     mismatch, sticky pipeline fault) means the call may or may not
//     have reached the server. Only idempotent procedures are
//     reissued; non-idempotent ones (Create, Remove, Rename, ...)
//     surface the error so the caller decides — blind reissue could
//     double-apply a side effect.
//
// Retries back off exponentially with seeded jitter so a client herd
// cut by the same fault does not reconnect in lockstep.

// statusError marks an error decoded from a server reply: the call
// executed, so a retrying transport must not reissue it. Unwrap keeps
// errors.Is(err, core.ErrNotFound) etc. working for callers.
// Transports return it bare, never wrapped, so a type assertion finds
// it without the allocation errors.As would cost per call.
type statusError struct{ err error }

func (e statusError) Error() string { return e.err.Error() }
func (e statusError) Unwrap() error { return e.err }

// RetryConfig tunes DialRetry. The zero value gets sane defaults.
type RetryConfig struct {
	// Attempts bounds total tries per call, first included (default 4).
	Attempts int
	// Backoff is the delay before the first retry, doubling per retry
	// (default 5ms).
	Backoff time.Duration
	// MaxBackoff caps the doubled delay (default 250ms).
	MaxBackoff time.Duration
	// Seed feeds the jitter source; 0 derives one from the address so
	// distinct clients decorrelate.
	Seed int64
	// Window is the redialled transport's pipeline window; 0 keeps
	// one call in flight, as Dial does.
	Window int
}

func (c RetryConfig) withDefaults() RetryConfig {
	if c.Attempts <= 0 {
		c.Attempts = 4
	}
	if c.Backoff <= 0 {
		c.Backoff = 5 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 250 * time.Millisecond
	}
	return c
}

// idempotentProc reports whether proc can be blindly reissued after
// an ambiguous transport failure. Write qualifies: it is an
// absolute-offset overwrite, so applying it twice converges. The
// namespace mutators do not.
func idempotentProc(proc uint32) bool {
	switch proc {
	case ProcNull, ProcMount, ProcGetattr, ProcSetattr, ProcLookup,
		ProcRead, ProcWrite, ProcReaddir, ProcReadlink, ProcStatFS:
		return true
	}
	return false
}

// DialRetry connects like DialPipeline with cfg.Window (Dial when it
// is 0) but returns a client that transparently redials and re-issues
// idempotent calls on transport failures, bounded by cfg. The initial
// dial is attempted once so a bad address fails fast.
func DialRetry(addr string, cfg RetryConfig) (*Client, error) {
	cfg = cfg.withDefaults()
	if cfg.Seed == 0 {
		for _, b := range []byte(addr) {
			cfg.Seed = cfg.Seed*131 + int64(b)
		}
		cfg.Seed |= 1
	}
	window := max(cfg.Window, 1)
	dial := func() (transport, error) {
		c, err := DialPipeline(addr, window)
		if err != nil {
			return nil, err
		}
		return c.tr, nil
	}
	rt := newRetryTransport(dial, cfg)
	if _, err := rt.current(); err != nil {
		return nil, err
	}
	return &Client{tr: rt}, nil
}

// RetryStats reports the retry transport's counters: connections
// re-established and calls re-issued. Zero for non-retry clients.
func (c *Client) RetryStats() (redials, reissues int64) {
	if rt, ok := c.tr.(*retryTransport); ok {
		rt.mu.Lock()
		defer rt.mu.Unlock()
		return rt.redials, rt.reissues
	}
	return 0, 0
}

// retryTransport owns a replaceable inner transport plus the retry
// policy. It is safe for concurrent use: a transport failure drops
// the shared inner transport once; every caller then redials through
// current().
type retryTransport struct {
	dial func() (transport, error)
	cfg  RetryConfig

	mu       sync.Mutex
	tr       transport // nil when dropped
	dialed   bool      // tr was ever established
	rng      *rand.Rand
	redials  int64
	reissues int64
	closed   bool
}

func newRetryTransport(dial func() (transport, error), cfg RetryConfig) *retryTransport {
	return &retryTransport{
		dial: dial,
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
	}
}

// current returns the live inner transport, dialing a fresh one if
// the previous failed.
func (r *retryTransport) current() (transport, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, errors.New("nfs: client closed")
	}
	if r.tr != nil {
		return r.tr, nil
	}
	tr, err := r.dial()
	if err != nil {
		return nil, err
	}
	if r.dialed {
		r.redials++
	}
	r.dialed = true
	r.tr = tr
	return tr, nil
}

// drop discards tr if it is still the shared inner transport, so
// concurrent callers hitting the same dead connection close it once.
func (r *retryTransport) drop(tr transport) {
	r.mu.Lock()
	if r.tr == tr {
		r.tr = nil
		r.mu.Unlock()
		_ = tr.close()
		return
	}
	r.mu.Unlock()
}

func (r *retryTransport) close() error {
	r.mu.Lock()
	r.closed = true
	tr := r.tr
	r.tr = nil
	r.mu.Unlock()
	if tr != nil {
		return tr.close()
	}
	return nil
}

// backoff computes the pre-retry delay: exponential in the attempt
// number with up to 50% subtractive jitter.
func (r *retryTransport) backoff(attempt int) time.Duration {
	d := r.cfg.Backoff << uint(attempt)
	if d > r.cfg.MaxBackoff || d <= 0 {
		d = r.cfg.MaxBackoff
	}
	r.mu.Lock()
	j := time.Duration(r.rng.Int63n(int64(d)/2 + 1))
	r.mu.Unlock()
	return d - j
}

func (r *retryTransport) call(proc uint32, args func(*xdr.Encoder)) (xdr.Decoder, error) {
	var lastErr error
	for attempt := 0; attempt < r.cfg.Attempts; attempt++ {
		if attempt > 0 {
			time.Sleep(r.backoff(attempt - 1))
			r.mu.Lock()
			r.reissues++
			r.mu.Unlock()
		}
		tr, err := r.current()
		if err != nil {
			// Dial failures are always retryable: nothing was issued.
			lastErr = err
			continue
		}
		d, err := tr.call(proc, args)
		if err == nil {
			return d, nil
		}
		if _, ok := err.(statusError); ok {
			// The server executed the call; its answer stands.
			return xdr.Decoder{}, err
		}
		// Transport fault: connection state is suspect either way.
		r.drop(tr)
		if !idempotentProc(proc) {
			// The call may have executed; reissue could double-apply.
			return xdr.Decoder{}, err
		}
		lastErr = err
	}
	return xdr.Decoder{}, lastErr
}
