package nfs

import (
	"bufio"
	"fmt"
	"net"
	"sync"

	"repro/internal/core"
	"repro/internal/fsys"
	"repro/internal/xdr"
)

// Client speaks the PFS protocol to a server. It is safe for
// concurrent use. A Dial client keeps one call in flight on its
// connection; a DialPipeline client keeps a window of calls in
// flight, letting the server's per-connection pipeline overlap
// decode and execution.
type Client struct {
	tr *pipeTransport
}

// Dial connects to a server one call at a time: a pipelined
// transport with a window of one.
func Dial(addr string) (*Client, error) { return DialPipeline(addr, 1) }

// DialPipeline connects with a pipelined transport: up to window
// calls may be outstanding on the wire at once (callers beyond that
// block), matched to replies by xid. window <= 0 means
// DefaultPipeline.
func DialPipeline(addr string, window int) (*Client, error) {
	if window <= 0 {
		window = DefaultPipeline
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	p := &pipeTransport{
		conn:    conn,
		r:       bufio.NewReaderSize(conn, connReadBuf),
		slots:   make(chan *pipeSlot, window),
		pending: make(map[uint32]*pipeSlot, window),
		done:    make(chan struct{}),
	}
	for i := 0; i < window; i++ {
		p.slots <- &pipeSlot{reply: make(chan struct{}, 1)}
	}
	go p.readLoop()
	return &Client{tr: p}, nil
}

// Close drops the connection; outstanding pipelined calls fail.
func (c *Client) Close() error { return c.tr.close() }

// sendCall encodes one call into e — the transport's reused encoder,
// guarded by the caller's lock — and writes it with one syscall.
func sendCall(conn net.Conn, e *xdr.Encoder, out *net.Buffers, xid, proc uint32, args func(*xdr.Encoder)) error {
	beginMsg(e, xid, MsgCall, proc)
	if args != nil {
		args(e)
	}
	return writeMsg(conn, e, out)
}

// readReply reads the next reply frame — a fresh one, which the
// caller keeps — and decodes its head.
func readReply(r *bufio.Reader) (xid, status uint32, d xdr.Decoder, err error) {
	frame, err := readFrame(r, nil)
	if err != nil {
		return 0, 0, d, err
	}
	d.Reset(frame)
	if xid, err = d.Uint32(); err != nil {
		return 0, 0, d, err
	}
	if dir, err := d.Uint32(); err != nil || dir != MsgReply {
		return 0, 0, d, fmt.Errorf("nfs: bad reply direction")
	}
	status, err = d.Uint32()
	return xid, status, d, err
}

// pipeTransport keeps up to `window` calls outstanding, writing
// frames under wmu and matching replies to callers by xid on a
// dedicated reader goroutine. Each outstanding call holds one of the
// preallocated slots; taking a slot is the admission.
type pipeTransport struct {
	conn  net.Conn
	r     *bufio.Reader  // the reader goroutine's
	slots chan *pipeSlot // free call slots: the outstanding-call window

	wmu sync.Mutex  // serializes frame writes; guards enc and out
	enc xdr.Encoder // the call being sent
	out net.Buffers

	mu      sync.Mutex
	xid     uint32
	pending map[uint32]*pipeSlot
	err     error // sticky transport failure

	done chan struct{} // closed when the reader exits
}

// pipeSlot is one outstanding call: the reader fills in d (or err)
// and then signals reply.
type pipeSlot struct {
	reply chan struct{} // buffered 1
	d     xdr.Decoder
	err   error
}

func (p *pipeTransport) close() error {
	err := p.conn.Close()
	<-p.done // reader has failed all pending calls
	return err
}

// call moves one call's frames and hands back a decoder positioned at
// the results. The call frame is sent by one vectored write that
// resets the encoder, so no segment that args borrowed (a Write
// payload) is referenced once call returns, whether it succeeded or
// not. The decoder is a value over a reply frame allocated for this
// call alone, so the caller may keep the bytes it borrows out of it
// (Read returns them).
func (p *pipeTransport) call(proc uint32, args func(*xdr.Encoder)) (xdr.Decoder, error) {
	s := <-p.slots
	defer func() { p.slots <- s }()

	p.mu.Lock()
	if p.err != nil {
		p.mu.Unlock()
		return xdr.Decoder{}, p.err
	}
	p.xid++
	xid := p.xid
	p.pending[xid] = s
	p.mu.Unlock()

	p.wmu.Lock()
	err := sendCall(p.conn, &p.enc, &p.out, xid, proc, args)
	p.wmu.Unlock()
	if err != nil {
		p.mu.Lock()
		_, mine := p.pending[xid]
		delete(p.pending, xid)
		p.mu.Unlock()
		if !mine {
			<-s.reply // the reader failed it meanwhile: leave the slot clean
		}
		s.d, s.err = xdr.Decoder{}, nil
		return xdr.Decoder{}, err
	}
	<-s.reply
	d, err := s.d, s.err
	s.d, s.err = xdr.Decoder{}, nil
	return d, err
}

// readLoop demultiplexes replies to their callers until the
// connection dies, then fails every outstanding call.
func (p *pipeTransport) readLoop() {
	defer close(p.done)
	for {
		xid, status, d, err := readReply(p.r)
		if err != nil {
			p.failAll(err)
			return
		}
		p.mu.Lock()
		s := p.pending[xid]
		delete(p.pending, xid)
		p.mu.Unlock()
		if s == nil {
			p.failAll(fmt.Errorf("nfs: reply for unknown xid %d", xid))
			return
		}
		if status != OK {
			s.err = ErrorOf(status)
		} else {
			s.d = d
		}
		s.reply <- struct{}{}
	}
}

func (p *pipeTransport) failAll(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	for xid, s := range p.pending {
		s.err = err
		s.reply <- struct{}{}
		delete(p.pending, xid)
	}
	p.mu.Unlock()
}

// Null pings the server.
func (c *Client) Null() error {
	_, err := c.tr.call(ProcNull, nil)
	return err
}

// Mount returns the root handle and attributes of a volume.
func (c *Client) Mount(vol core.VolumeID) (FH, fsys.FileAttr, error) {
	d, err := c.tr.call(ProcMount, func(e *xdr.Encoder) { e.Uint32(uint32(vol)) })
	if err != nil {
		return FH{}, fsys.FileAttr{}, err
	}
	return decodeFHAttr(&d)
}

// Getattr fetches attributes.
func (c *Client) Getattr(fh FH) (fsys.FileAttr, error) {
	d, err := c.tr.call(ProcGetattr, func(e *xdr.Encoder) { encodeFH(e, fh) })
	if err != nil {
		return fsys.FileAttr{}, err
	}
	return decodeAttr(&d)
}

// SetSize truncates or extends a file.
func (c *Client) SetSize(fh FH, size int64) (fsys.FileAttr, error) {
	d, err := c.tr.call(ProcSetattr, func(e *xdr.Encoder) {
		encodeFH(e, fh)
		e.Int64(size)
	})
	if err != nil {
		return fsys.FileAttr{}, err
	}
	return decodeAttr(&d)
}

// Lookup resolves name in directory dir.
func (c *Client) Lookup(dir FH, name string) (FH, fsys.FileAttr, error) {
	d, err := c.tr.call(ProcLookup, func(e *xdr.Encoder) {
		encodeFH(e, dir)
		e.String(name)
	})
	if err != nil {
		return FH{}, fsys.FileAttr{}, err
	}
	return decodeFHAttr(&d)
}

// Read fetches up to count bytes at off. The result aliases the
// reply frame, which was allocated for this call and is the caller's.
func (c *Client) Read(fh FH, off int64, count int) ([]byte, error) {
	d, err := c.tr.call(ProcRead, func(e *xdr.Encoder) {
		encodeFH(e, fh)
		e.Int64(off)
		e.Uint32(uint32(count))
	})
	if err != nil {
		return nil, err
	}
	return d.OpaqueBorrow()
}

// Write stores data at off and returns the new attributes. The call
// sends data by reference, with no copy: the frame goes out in one
// vectored write before call returns, so the caller may reuse data as
// soon as Write returns.
func (c *Client) Write(fh FH, off int64, data []byte) (fsys.FileAttr, error) {
	d, err := c.tr.call(ProcWrite, func(e *xdr.Encoder) {
		encodeFH(e, fh)
		e.Int64(off)
		e.OpaqueVec([][]byte{data}, len(data))
	})
	if err != nil {
		return fsys.FileAttr{}, err
	}
	return decodeAttr(&d)
}

// Create makes a regular file in dir.
func (c *Client) Create(dir FH, name string) (FH, fsys.FileAttr, error) {
	return c.makeNode(ProcCreate, dir, name)
}

// Mkdir makes a directory in dir.
func (c *Client) Mkdir(dir FH, name string) (FH, fsys.FileAttr, error) {
	return c.makeNode(ProcMkdir, dir, name)
}

func (c *Client) makeNode(proc uint32, dir FH, name string) (FH, fsys.FileAttr, error) {
	d, err := c.tr.call(proc, func(e *xdr.Encoder) {
		encodeFH(e, dir)
		e.String(name)
	})
	if err != nil {
		return FH{}, fsys.FileAttr{}, err
	}
	return decodeFHAttr(&d)
}

// Remove unlinks a file from dir.
func (c *Client) Remove(dir FH, name string) error {
	_, err := c.tr.call(ProcRemove, func(e *xdr.Encoder) {
		encodeFH(e, dir)
		e.String(name)
	})
	return err
}

// Rmdir removes an empty directory from dir.
func (c *Client) Rmdir(dir FH, name string) error {
	_, err := c.tr.call(ProcRmdir, func(e *xdr.Encoder) {
		encodeFH(e, dir)
		e.String(name)
	})
	return err
}

// Rename moves fromName in fromDir to toName in toDir.
func (c *Client) Rename(fromDir FH, fromName string, toDir FH, toName string) error {
	_, err := c.tr.call(ProcRename, func(e *xdr.Encoder) {
		encodeFH(e, fromDir)
		e.String(fromName)
		encodeFH(e, toDir)
		e.String(toName)
	})
	return err
}

// DirEntry is one readdir result.
type DirEntry struct {
	Name string
	ID   core.FileID
}

// Readdir lists dir.
func (c *Client) Readdir(dir FH) ([]DirEntry, error) {
	d, err := c.tr.call(ProcReaddir, func(e *xdr.Encoder) { encodeFH(e, dir) })
	if err != nil {
		return nil, err
	}
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	out := make([]DirEntry, 0, n)
	for i := uint32(0); i < n; i++ {
		name, err := d.String()
		if err != nil {
			return nil, err
		}
		id, err := d.Uint64()
		if err != nil {
			return nil, err
		}
		out = append(out, DirEntry{Name: name, ID: core.FileID(id)})
	}
	return out, nil
}

// Symlink creates a symbolic link in dir.
func (c *Client) Symlink(dir FH, name, target string) (FH, fsys.FileAttr, error) {
	d, err := c.tr.call(ProcSymlink, func(e *xdr.Encoder) {
		encodeFH(e, dir)
		e.String(name)
		e.String(target)
	})
	if err != nil {
		return FH{}, fsys.FileAttr{}, err
	}
	return decodeFHAttr(&d)
}

// Readlink fetches a symlink's target.
func (c *Client) Readlink(fh FH) (string, error) {
	d, err := c.tr.call(ProcReadlink, func(e *xdr.Encoder) { encodeFH(e, fh) })
	if err != nil {
		return "", err
	}
	return d.String()
}

// FSInfo is the statfs result.
type FSInfo struct {
	BlockSize  uint32
	FreeBlocks int64
	Layout     string
}

// StatFS reports volume capacity.
func (c *Client) StatFS(fh FH) (FSInfo, error) {
	d, err := c.tr.call(ProcStatFS, func(e *xdr.Encoder) { encodeFH(e, fh) })
	if err != nil {
		return FSInfo{}, err
	}
	bs, err := d.Uint32()
	if err != nil {
		return FSInfo{}, err
	}
	free, err := d.Int64()
	if err != nil {
		return FSInfo{}, err
	}
	lay, err := d.String()
	if err != nil {
		return FSInfo{}, err
	}
	return FSInfo{BlockSize: bs, FreeBlocks: free, Layout: lay}, nil
}

func decodeFHAttr(d *xdr.Decoder) (FH, fsys.FileAttr, error) {
	fh, err := decodeFH(d)
	if err != nil {
		return FH{}, fsys.FileAttr{}, err
	}
	attr, err := decodeAttr(d)
	return fh, attr, err
}
