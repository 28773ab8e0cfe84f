package nfs

import (
	"bufio"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fsys"
	"repro/internal/layout"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/xdr"
)

// Server is the PFS client interface: it listens on TCP, spawns a
// framework thread per connection, and dispatches each call onto the
// abstract client interface — the derived-class structure of the
// paper's NFS component.
//
// Each connection is served by two tasks: a reader that decodes the
// next call off the socket while the previous one executes, and an
// executor that dispatches the queued calls strictly in arrival
// order and writes the replies — so replies stay in per-connection
// request order while decode, execution and the client's own
// think time overlap. The queue depth is Options.Pipeline.
//
// Every connection owns its RPC state (connState) and reuses it call
// after call: a buffered reader, a free list of frame buffers, one
// reply encoder and decoder, one write vector, one frame loan, one
// open handle and one traced op. A cache-hit read or a write of up to
// four blocks therefore allocates nothing here but the per-call work
// of the layers below.
type Server struct {
	fs     *fsys.FS
	k      sched.Kernel
	ln     net.Listener
	window int
	st     *ServerStats
	tracer *telemetry.Tracer // nil = untraced

	mu        sync.Mutex
	closed    bool
	draining  bool
	conns     map[net.Conn]*connState
	inflightN int // admitted calls not yet replied, server-wide
	inflight  sync.WaitGroup
}

// call is one admitted request: the decoded frame plus its admission
// time, from which the executor derives the pipeline-queue wait.
type call struct {
	frame []byte
	at    sched.Time
}

// connState is one connection's reusable RPC state. inflight counts
// its admitted calls (decoded, queued or executing, reply not yet
// written), so a drain can cut idle connections immediately and let
// busy ones finish their pipeline; Server.mu guards it. The reader
// task owns r and takes frame buffers off free; the executor task
// owns the rest and puts each frame back once its reply is on the
// wire — so a frame, and a write payload borrowed out of it, belongs
// to one call from the socket read to the reply, and WriteAt has
// copied the payload into the cache long before the frame is reused.
// The executor runs one call at a time, so one open handle and one
// traced op serve every call.
type connState struct {
	inflight int

	r    *bufio.Reader
	free chan []byte // recycled frame buffers, at most one per window slot

	dec  xdr.Decoder
	enc  xdr.Encoder  // the reply being built, reset per call
	out  net.Buffers  // writeMsg's vector
	h    fsys.Handle  // the file a read or write call has open
	op   telemetry.Op // the call's traced op, when the server traces
	loan fsys.Loan    // cache frames a read reply lends to the socket
	// The volume a read reply's loan was taken through: h is closed
	// on it after the loan is released.
	lentVol *fsys.Volume
}

func newConnState(conn net.Conn, window int) *connState {
	return &connState{
		r:    bufio.NewReaderSize(conn, connReadBuf),
		free: make(chan []byte, window),
	}
}

// takeFrame returns a recycled frame buffer, or nil when none is free
// (readFrame then allocates).
func (c *connState) takeFrame() []byte {
	select {
	case b := <-c.free:
		return b
	default:
		return nil
	}
}

// putFrame recycles a frame buffer whose call has been answered,
// unless it is larger than connReadBuf.
func (c *connState) putFrame(b []byte) {
	if cap(b) > connReadBuf {
		return
	}
	select {
	case c.free <- b[:0]:
	default:
	}
}

// Options tunes the server.
type Options struct {
	// Pipeline is the per-connection window: how many calls may be
	// admitted at once (one executing plus the rest decoded and
	// queued). 1 disables pipelining — the classic one-call-at-a-
	// time loop; 0 means DefaultPipeline.
	Pipeline int
	// Tracer, when non-nil, traces every call: the executor binds an
	// op to its task so the layers below charge their stage time, and
	// slow calls land in the tracer's ring.
	Tracer *telemetry.Tracer
}

// DefaultPipeline is the per-connection window Serve uses.
const DefaultPipeline = 8

// Serve starts a server on addr (e.g. "127.0.0.1:0") over the given
// front-end. It returns once the listener is ready.
func Serve(k sched.Kernel, fs *fsys.FS, addr string, o Options) (*Server, error) {
	if o.Pipeline <= 0 {
		o.Pipeline = DefaultPipeline
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{fs: fs, k: k, ln: ln, window: o.Pipeline, st: newServerStats(),
		tracer: o.Tracer, conns: make(map[net.Conn]*connState)}
	k.Go("nfs.accept", s.acceptLoop)
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// ServerStats returns the statistics plug-in.
func (s *Server) ServerStats() *ServerStats { return s.st }

// Connections returns the number of open connections.
func (s *Server) Connections() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// InflightCalls returns the number of admitted calls whose reply has
// not been written yet, across all connections.
func (s *Server) InflightCalls() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inflightN
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Close stops the listener and all connections immediately,
// dropping whatever is in flight.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	return s.ln.Close()
}

// Drain is the graceful half of shutdown: it stops accepting new
// connections and new calls, closes idle connections, and blocks
// until every in-flight call has completed and its reply has been
// written. Busy connections close themselves right after that reply.
// The file system is quiescent (from the network's point of view)
// when Drain returns. A drained connection closes gracefully
// (lingerClose), so no reply it wrote is lost to a reset.
func (s *Server) Drain() {
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		return
	}
	s.draining = true
	var idle []net.Conn
	for c, st := range s.conns {
		if st.inflight == 0 {
			idle = append(idle, c)
		}
	}
	s.mu.Unlock()
	s.ln.Close()
	for _, c := range idle {
		wake(c) // the conn task parked in readFrame ends the connection
	}
	s.inflight.Wait()
}

// drainLinger bounds how long a drained connection keeps reading (and
// discarding) its client's input after the last reply.
const drainLinger = 200 * time.Millisecond

// wake makes a reader parked in readFrame fail at once, without
// closing the connection under replies still to be read.
func wake(conn net.Conn) { conn.SetReadDeadline(time.Now()) }

// lingerClose ends a drained connection without destroying replies it
// already wrote. Closing a socket with unread input makes the kernel
// send a reset, and a reset can overtake data still in flight to the
// client. So the server half-closes (the client reads EOF after the
// last reply), then discards input until the client closes its end or
// drainLinger passes; the caller closes the socket after that.
func lingerClose(conn net.Conn) {
	if hc, ok := conn.(interface{ CloseWrite() error }); ok {
		hc.CloseWrite()
	}
	conn.SetReadDeadline(time.Now().Add(drainLinger))
	io.Copy(io.Discard, conn)
}

func (s *Server) acceptLoop(t sched.Task) {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed || s.draining {
			s.mu.Unlock()
			conn.Close()
			return
		}
		st := newConnState(conn, s.window)
		s.conns[conn] = st
		s.mu.Unlock()
		c := conn
		s.k.Go("nfs.conn", func(ct sched.Task) {
			defer func() {
				c.Close()
				s.mu.Lock()
				delete(s.conns, c)
				s.mu.Unlock()
			}()
			s.serveConn(ct, c, st)
		})
	}
}

// serveConn is a connection's reader half: it decodes frames off the
// socket and queues them for the executor. Admission (the in-flight
// count) happens here, so Drain's accounting covers
// queued-but-not-yet-executing calls too. The slots semaphore is
// acquired before the socket read and released by the executor after
// the reply, so at most `window` calls are admitted at once — and
// with a window of 1 the reader does not even touch the socket while
// a call executes, exactly the classic one-call-at-a-time loop. Since
// a frame buffer goes back on the free list before its slot is freed,
// at most `window` frames exist per connection.
func (s *Server) serveConn(t sched.Task, conn net.Conn, c *connState) {
	queue := make(chan call, s.window) // slots bounds it; sends never block
	slots := make(chan struct{}, s.window)
	done := make(chan struct{})
	s.k.Go("nfs.conn.exec", func(et sched.Task) {
		s.execLoop(et, conn, c, queue, slots, done)
	})
	for {
		slots <- struct{}{} // wait for an admission slot
		frame, err := readFrame(c.r, c.takeFrame())
		if err != nil {
			break
		}
		// A drained server serves what is already admitted but
		// starts nothing new.
		s.mu.Lock()
		if s.draining || s.closed || s.conns[conn] == nil {
			s.mu.Unlock()
			break
		}
		c.inflight++
		depth := c.inflight
		s.inflightN++
		s.inflight.Add(1)
		s.mu.Unlock()
		s.st.Depth.Observe(int64(depth))
		queue <- call{frame: frame, at: s.k.Now()}
	}
	close(queue)
	<-done
	s.mu.Lock()
	drained := s.draining && !s.closed
	s.mu.Unlock()
	if drained {
		lingerClose(conn)
	}
}

// execLoop is a connection's executor half: it dispatches admitted
// calls strictly in arrival order and writes each reply before
// starting the next, keeping per-connection replies ordered. After a
// protocol or write error it keeps consuming the queue (so the
// reader is never stuck on a full window) but only settles the
// accounting.
func (s *Server) execLoop(t sched.Task, conn net.Conn, c *connState, queue chan call, slots chan struct{}, done chan struct{}) {
	defer close(done)
	failed := false
	for cl := range queue {
		if !failed && !s.execute(t, c, conn, cl) {
			failed = true
			conn.Close() // unblocks the reader; repeat closes are harmless
		}
		c.putFrame(cl.frame) // the reply is written (or never will be)
		s.finishCall(conn)
		<-slots // free the admission slot: the reader may read again
	}
}

// execute runs one call: decode, dispatch onto the abstract client
// interface, write the reply. It reports whether the connection is
// still usable.
func (s *Server) execute(t sched.Task, c *connState, conn net.Conn, cl call) bool {
	d := &c.dec
	d.Reset(cl.frame)
	xid, err := d.Uint32()
	if err != nil {
		return false
	}
	dir, err := d.Uint32()
	if err != nil || dir != MsgCall {
		return false
	}
	proc, err := d.Uint32()
	if err != nil {
		return false
	}
	// The traced op starts at admission, so the pipeline-queue wait
	// (dispatch start minus admission) is its first stage; the layers
	// below find the op through the task binding.
	op := s.tracer.BeginIn(&c.op, ProcName(proc), cl.at)
	if op != nil {
		op.Add(telemetry.StageQueue, s.k.Now().Sub(cl.at))
		s.tracer.Bind(t, op)
	}
	e := &c.enc
	beginMsg(e, xid, MsgReply, OK)
	status := s.dispatch(t, proc, d, e, c)
	if op != nil {
		s.tracer.Unbind(t)
	}
	end := s.k.Now()
	s.tracer.Finish(op, end)
	if int(proc) < NumProcs {
		s.st.Calls.Add(int(proc), 1)
		s.st.Latency[proc].Observe(end.Sub(cl.at))
	}
	if status != OK {
		s.st.Errors.Inc()
	}
	// The reply may carry segments borrowed from cache frames (a
	// zero-copy read); one vectored write sends the owned pieces and
	// the frames alike, then the loan is returned and its handle
	// closed, in that order.
	e.PutUint32At(statusOff, status)
	err = writeMsg(conn, e, &c.out)
	if c.lentVol != nil {
		c.loan.Release(t)
		c.closeFile(t, c.lentVol)
		c.lentVol = nil
	}
	return err == nil
}

// closeFile closes the connection's open handle on v and forgets its
// file.
func (c *connState) closeFile(t sched.Task, v *fsys.Volume) {
	v.Close(t, &c.h)
	c.h = fsys.Handle{}
}

// finishCall settles one admitted call's accounting; a draining
// connection closes itself right after its last reply.
func (s *Server) finishCall(conn net.Conn) {
	s.mu.Lock()
	closeNow := false
	if st := s.conns[conn]; st != nil {
		st.inflight--
		closeNow = s.draining && st.inflight == 0
	}
	s.inflightN--
	s.mu.Unlock()
	s.inflight.Done()
	if closeNow {
		wake(conn) // the reader stops; serveConn closes gracefully
	}
}

// maxFileSize is the largest file a layout's block map addresses.
const maxFileSize = layout.MaxFileBlocks * core.BlockSize

// badRange reports a byte range no file can hold. Offsets and sizes
// arrive off the wire unchecked, and the layers below assume sane
// ones: a negative read offset used to slice a cache frame out of
// range and take the whole server down.
func badRange(off, n int64) bool { return off < 0 || n < 0 || off > maxFileSize-n }

// resolve maps a handle to its volume and validates the generation:
// a handle minted for an earlier life of the inode slot (removed and
// re-created, or re-allocated by crash recovery) is cleanly stale,
// never an alias for the slot's current file. Handles without a
// generation (zero) skip the check.
func (s *Server) resolve(t sched.Task, fh FH) (*fsys.Volume, uint32) {
	v := s.fs.Vol(fh.Vol)
	if v == nil {
		return nil, ErrStale
	}
	if fh.Gen != 0 {
		gen, err := v.GenOf(t, fh.File)
		if err != nil {
			return nil, StatusOf(err)
		}
		if gen != fh.Gen {
			return nil, ErrStale
		}
	}
	return v, OK
}

// dispatch decodes args from d, performs the procedure, encodes
// results into e (after the head beginMsg wrote) and returns the
// status. A procedure that lends resources into the reply (a
// zero-copy read borrowing cache frames) leaves them in c — the loan
// and the handle it was taken through — and the caller returns them
// after the reply is on the wire.
func (s *Server) dispatch(t sched.Task, proc uint32, d *xdr.Decoder, e *xdr.Encoder, c *connState) uint32 {
	switch proc {
	case ProcNull:
		return OK

	case ProcMount:
		volID, err := d.Uint32()
		if err != nil {
			return ErrInval
		}
		v := s.fs.Vol(core.VolumeID(volID))
		if v == nil {
			return ErrNoent
		}
		root := v.Root()
		attr, err := v.StatByID(t, root)
		if err != nil {
			return StatusOf(err)
		}
		encodeFH(e, FH{Vol: core.VolumeID(volID), File: root, Gen: attr.Gen})
		encodeAttr(e, attr)
		return OK

	case ProcGetattr:
		fh, err := decodeFH(d)
		if err != nil {
			return ErrInval
		}
		v, st := s.resolve(t, fh)
		if st != OK {
			return st
		}
		attr, err := v.StatByID(t, fh.File)
		if err != nil {
			return StatusOf(err)
		}
		encodeAttr(e, attr)
		return OK

	case ProcSetattr:
		fh, err := decodeFH(d)
		if err != nil {
			return ErrInval
		}
		size, err := d.Int64()
		if err != nil || badRange(size, 0) {
			return ErrInval
		}
		v, st := s.resolve(t, fh)
		if st != OK {
			return st
		}
		attr, err := v.SetSizeByID(t, fh.File, size)
		if err != nil {
			return StatusOf(err)
		}
		encodeAttr(e, attr)
		return OK

	case ProcLookup:
		fh, err := decodeFH(d)
		if err != nil {
			return ErrInval
		}
		name, err := d.String()
		if err != nil {
			return ErrInval
		}
		v, st := s.resolve(t, fh)
		if st != OK {
			return st
		}
		attr, err := v.LookupIn(t, fh.File, name)
		if err != nil {
			return StatusOf(err)
		}
		encodeFH(e, FH{Vol: fh.Vol, File: attr.ID, Gen: attr.Gen})
		encodeAttr(e, attr)
		return OK

	case ProcRead:
		fh, err := decodeFH(d)
		if err != nil {
			return ErrInval
		}
		off, err := d.Int64()
		if err != nil {
			return ErrInval
		}
		count, err := d.Uint32()
		if err != nil || badRange(off, 0) {
			return ErrInval
		}
		if count > MaxIO {
			count = MaxIO
		}
		v, st := s.resolve(t, fh)
		if st != OK {
			return st
		}
		if err := v.OpenInto(t, fh.File, &c.h); err != nil {
			return StatusOf(err)
		}
		// Zero-copy reply: borrow the cache frames and writev them
		// straight to the socket. Only a volume that moves no real
		// data falls through to the copying path.
		if n, ok, rerr := v.ReadBorrowAt(t, &c.h, off, int64(count), &c.loan); ok {
			if rerr != nil {
				c.closeFile(t, v)
				return StatusOf(rerr)
			}
			// The frames stay borrowed until the reply is written;
			// the handle stays open until then too, so its close
			// (which may destroy an unlinked file and wait for the
			// pins) runs strictly after the loans are returned.
			c.lentVol = v
			e.OpaqueVec(c.loan.Segs, int(n))
			return OK
		}
		buf := make([]byte, count)
		n, err := v.ReadAt(t, &c.h, off, buf, int64(count))
		c.closeFile(t, v)
		if err != nil {
			return StatusOf(err)
		}
		e.Opaque(buf[:n])
		return OK

	case ProcWrite:
		fh, err := decodeFH(d)
		if err != nil {
			return ErrInval
		}
		off, err := d.Int64()
		if err != nil {
			return ErrInval
		}
		// Borrow the payload straight out of the frame: WriteAt
		// copies it into the cache before this call returns, and the
		// frame buffer belongs to this call until its reply is written
		// (only then does the executor put it back on the connection's
		// free list for the reader to fill again), so the no-copy
		// aliasing rules hold.
		data, err := d.OpaqueBorrow()
		if err != nil || badRange(off, int64(len(data))) {
			return ErrInval
		}
		v, st := s.resolve(t, fh)
		if st != OK {
			return st
		}
		if err := v.OpenInto(t, fh.File, &c.h); err != nil {
			return StatusOf(err)
		}
		err = v.WriteAt(t, &c.h, off, data, int64(len(data)))
		if err == nil {
			encodeAttr(e, v.StatHandle(t, &c.h))
		}
		c.closeFile(t, v)
		return StatusOf(err)

	case ProcCreate, ProcMkdir:
		fh, err := decodeFH(d)
		if err != nil {
			return ErrInval
		}
		name, err := d.String()
		if err != nil {
			return ErrInval
		}
		v, st := s.resolve(t, fh)
		if st != OK {
			return st
		}
		typ := core.TypeRegular
		if proc == ProcMkdir {
			typ = core.TypeDirectory
		}
		attr, err := v.CreateIn(t, fh.File, name, typ)
		if err != nil {
			return StatusOf(err)
		}
		encodeFH(e, FH{Vol: fh.Vol, File: attr.ID, Gen: attr.Gen})
		encodeAttr(e, attr)
		return OK

	case ProcRemove, ProcRmdir:
		fh, err := decodeFH(d)
		if err != nil {
			return ErrInval
		}
		name, err := d.String()
		if err != nil {
			return ErrInval
		}
		v, st := s.resolve(t, fh)
		if st != OK {
			return st
		}
		if proc == ProcRmdir {
			return StatusOf(v.RmdirIn(t, fh.File, name))
		}
		return StatusOf(v.RemoveIn(t, fh.File, name))

	case ProcRename:
		from, err := decodeFH(d)
		if err != nil {
			return ErrInval
		}
		fromName, err := d.String()
		if err != nil {
			return ErrInval
		}
		to, err := decodeFH(d)
		if err != nil {
			return ErrInval
		}
		toName, err := d.String()
		if err != nil {
			return ErrInval
		}
		if from.Vol != to.Vol {
			return ErrInval
		}
		v, st := s.resolve(t, from)
		if st != OK {
			return st
		}
		if _, st := s.resolve(t, to); st != OK {
			return st
		}
		return StatusOf(v.RenameIn(t, from.File, fromName, to.File, toName))

	case ProcReaddir:
		fh, err := decodeFH(d)
		if err != nil {
			return ErrInval
		}
		v, st := s.resolve(t, fh)
		if st != OK {
			return st
		}
		ents, err := v.ReaddirByID(t, fh.File)
		if err != nil {
			return StatusOf(err)
		}
		e.Uint32(uint32(len(ents)))
		for _, ent := range ents {
			e.String(ent.Name)
			e.Uint64(uint64(ent.ID))
		}
		return OK

	case ProcSymlink:
		fh, err := decodeFH(d)
		if err != nil {
			return ErrInval
		}
		name, err := d.String()
		if err != nil {
			return ErrInval
		}
		target, err := d.String()
		if err != nil {
			return ErrInval
		}
		v, st := s.resolve(t, fh)
		if st != OK {
			return st
		}
		attr, err := v.SymlinkIn(t, fh.File, name, target)
		if err != nil {
			return StatusOf(err)
		}
		encodeFH(e, FH{Vol: fh.Vol, File: attr.ID, Gen: attr.Gen})
		encodeAttr(e, attr)
		return OK

	case ProcReadlink:
		fh, err := decodeFH(d)
		if err != nil {
			return ErrInval
		}
		v, st := s.resolve(t, fh)
		if st != OK {
			return st
		}
		target, err := v.ReadlinkByID(t, fh.File)
		if err != nil {
			return StatusOf(err)
		}
		e.String(target)
		return OK

	case ProcStatFS:
		fh, err := decodeFH(d)
		if err != nil {
			return ErrInval
		}
		v, st := s.resolve(t, fh)
		if st != OK {
			return st
		}
		e.Uint32(core.BlockSize)
		e.Int64(v.FreeBlocks())
		e.String(v.LayoutName())
		return OK
	}
	return ErrInval // unknown procedure
}
