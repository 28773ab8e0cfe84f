package nfs

import (
	"net"
	"sync"

	"repro/internal/core"
	"repro/internal/fsys"
	"repro/internal/sched"
	"repro/internal/stats"
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

// connState counts a connection's admitted calls (decoded, queued or
// executing, reply not yet written), so a drain can cut idle
// connections immediately and let busy ones finish their pipeline.
type connState struct {
	inflight int
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
// front-end with default options. It returns once the listener is
// ready.
func Serve(k sched.Kernel, fs *fsys.FS, addr string) (*Server, error) {
	return ServeOpts(k, fs, addr, Options{})
}

// ServeOpts is Serve with explicit options.
func ServeOpts(k sched.Kernel, fs *fsys.FS, addr string, o Options) (*Server, error) {
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

// Stats registers the server's sources with set.
func (s *Server) Stats(set *stats.Set) { s.st.Register(set) }

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
// when Drain returns.
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
		c.Close() // unblocks the conn task parked in readFrame
	}
	s.inflight.Wait()
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
		s.conns[conn] = &connState{}
		s.mu.Unlock()
		c := conn
		s.k.Go("nfs.conn", func(ct sched.Task) {
			defer func() {
				c.Close()
				s.mu.Lock()
				delete(s.conns, c)
				s.mu.Unlock()
			}()
			s.serveConn(ct, c)
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
// a call executes, exactly the classic one-call-at-a-time loop.
func (s *Server) serveConn(t sched.Task, conn net.Conn) {
	queue := make(chan call, s.window) // slots bounds it; sends never block
	slots := make(chan struct{}, s.window)
	done := make(chan struct{})
	s.k.Go("nfs.conn.exec", func(et sched.Task) {
		s.execLoop(et, conn, queue, slots, done)
	})
	for {
		slots <- struct{}{} // wait for an admission slot
		frame, err := readFrame(conn)
		if err != nil {
			break
		}
		// A drained server serves what is already admitted but
		// starts nothing new.
		s.mu.Lock()
		st := s.conns[conn]
		if s.draining || s.closed || st == nil {
			s.mu.Unlock()
			break
		}
		st.inflight++
		depth := st.inflight
		s.inflightN++
		s.inflight.Add(1)
		s.mu.Unlock()
		s.st.Depth.Observe(int64(depth))
		queue <- call{frame: frame, at: s.k.Now()}
	}
	close(queue)
	<-done
}

// execLoop is a connection's executor half: it dispatches admitted
// calls strictly in arrival order and writes each reply before
// starting the next, keeping per-connection replies ordered. After a
// protocol or write error it keeps consuming the queue (so the
// reader is never stuck on a full window) but only settles the
// accounting.
func (s *Server) execLoop(t sched.Task, conn net.Conn, queue chan call, slots chan struct{}, done chan struct{}) {
	defer close(done)
	failed := false
	for c := range queue {
		if !failed && !s.execute(t, conn, c) {
			failed = true
			conn.Close() // unblocks the reader; repeat closes are harmless
		}
		s.finishCall(conn)
		<-slots // free the admission slot: the reader may read again
	}
}

// execute runs one call: decode, dispatch onto the abstract client
// interface, write the reply. It reports whether the connection is
// still usable.
func (s *Server) execute(t sched.Task, conn net.Conn, c call) bool {
	d := xdr.NewDecoder(c.frame)
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
	op := s.tracer.Begin(ProcName(proc), c.at)
	if op != nil {
		op.Add(telemetry.StageQueue, s.k.Now().Sub(c.at))
		s.tracer.Bind(t, op)
	}
	e := xdr.NewEncoder()
	e.Uint32(xid)
	e.Uint32(MsgReply)
	var release func(sched.Task)
	status := s.dispatch(t, proc, d, e, &release)
	if op != nil {
		s.tracer.Unbind(t)
	}
	end := s.k.Now()
	s.tracer.Finish(op, end)
	if int(proc) < NumProcs {
		s.st.Calls.Add(int(proc), 1)
		s.st.Latency[proc].Observe(end.Sub(c.at))
	}
	if status != OK {
		s.st.Errors.Inc()
	}
	// Splice the status in after (xid, MsgReply): emit a fresh head
	// with the final status word and strip the placeholder from the
	// body. The body may carry segments borrowed from cache frames
	// (a zero-copy read reply); one vectored write sends head, owned
	// pieces and frames alike, then the loans are returned.
	head := xdr.NewEncoder()
	head.Uint32(xid)
	head.Uint32(MsgReply)
	head.Uint32(status)
	body := e.Parts()
	body[0] = body[0][8:] // drop the placeholder (xid, MsgReply)
	parts := append([][]byte{head.Bytes()}, body...)
	err = writeFrameVec(conn, parts)
	if release != nil {
		release(t)
	}
	return err == nil
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
		conn.Close()
	}
}

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
// results into e (after an 8-byte placeholder the caller strips),
// and returns the status. A procedure that lends resources into the
// reply (a zero-copy read borrowing cache frames) stores a cleanup
// in *rel; the caller runs it after the reply is on the wire.
func (s *Server) dispatch(t sched.Task, proc uint32, d *xdr.Decoder, e *xdr.Encoder, rel *func(sched.Task)) uint32 {
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
		if err != nil {
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
		if err != nil {
			return ErrInval
		}
		if count > MaxIO {
			count = MaxIO
		}
		v, st := s.resolve(t, fh)
		if st != OK {
			return st
		}
		h, err := v.OpenByID(t, fh.File)
		if err != nil {
			return StatusOf(err)
		}
		// Zero-copy reply: borrow the cache frames and writev them
		// straight to the socket. Only a volume that moves no real
		// data falls through to the copying path.
		if segs, n, release, ok, rerr := v.ReadBorrowAt(t, h, off, int64(count)); ok {
			if rerr != nil {
				v.Close(t, h)
				return StatusOf(rerr)
			}
			// The frames stay borrowed until the reply is written;
			// the handle stays open until then too, so its close
			// (which may destroy an unlinked file and wait for the
			// pins) runs strictly after the loans are returned.
			*rel = func(rt sched.Task) {
				release(rt)
				v.Close(rt, h)
			}
			e.OpaqueVec(segs, int(n))
			return OK
		}
		buf := make([]byte, count)
		n, err := v.ReadAt(t, h, off, buf, int64(count))
		v.Close(t, h)
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
		// frame buffer is private to this call (readFrame allocates
		// per message), so the no-copy aliasing rules hold.
		data, err := d.OpaqueBorrow()
		if err != nil {
			return ErrInval
		}
		v, st := s.resolve(t, fh)
		if st != OK {
			return st
		}
		h, err := v.OpenByID(t, fh.File)
		if err != nil {
			return StatusOf(err)
		}
		err = v.WriteAt(t, h, off, data, int64(len(data)))
		if err == nil {
			attr := v.StatHandle(t, h)
			encodeAttr(e, attr)
		}
		v.Close(t, h)
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
