package nfs_test

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fsys"
	"repro/internal/nfs"
	"repro/internal/xdr"
)

// fuzzXID marks the well-formed Getattr every fuzz input ends with.
const fuzzXID = 0x600DCA11

// callFrame is one record-marked call, as a client puts it on the wire.
func callFrame(xid, proc uint32, args func(*xdr.Encoder)) []byte {
	e := xdr.NewEncoder()
	e.Uint32(0) // record mark
	e.Uint32(xid)
	e.Uint32(nfs.MsgCall)
	e.Uint32(proc)
	if args != nil {
		args(e)
	}
	e.PutUint32At(0, uint32(e.Len()-4))
	return e.Bytes()
}

func encodeFH(e *xdr.Encoder, fh nfs.FH) {
	e.Uint32(uint32(fh.Vol))
	e.Uint64(uint64(fh.File))
	e.Uint64(fh.Gen)
}

// expectReplies walks a byte stream the way the server's reader and
// executor do and returns the xids it must answer, in order. A frame
// over MaxFrame, or one too short for an xid, the call direction and a
// procedure number, is fatal: the server answers the frames before it
// and closes the connection. whole reports that the first fatal frame
// is the stream's last bytes, so the server has read everything when
// it closes and no reset can cut the replies short. clean reports that
// the stream ends on a frame boundary with no fatal frame; otherwise
// missing counts the bytes that would complete a trailing cut-off
// frame.
func expectReplies(stream []byte) (xids []uint32, whole, clean bool, missing int) {
	for len(stream) >= 4 {
		n := int(binary.BigEndian.Uint32(stream))
		if n > nfs.MaxFrame {
			return xids, false, false, 0
		}
		if n > len(stream)-4 {
			return xids, false, false, n - (len(stream) - 4)
		}
		f := stream[4 : 4+n]
		if n < 12 || binary.BigEndian.Uint32(f[4:]) != nfs.MsgCall {
			return xids, len(stream) == 4+n, false, 0
		}
		xids = append(xids, binary.BigEndian.Uint32(f))
		stream = stream[4+n:]
	}
	if len(stream) > 0 {
		return xids, false, false, 4 - len(stream)
	}
	return xids, false, true, 0
}

// reply is one reply frame as the fuzz client saw it.
type reply struct {
	xid, status uint32
	body        []byte // the results, after the head
}

// readReplies collects reply frames until the connection ends.
func readReplies(conn net.Conn) ([]reply, error) {
	r := bufio.NewReader(conn)
	var out []reply
	for {
		var hdr [4]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return out, err
		}
		frame := make([]byte, binary.BigEndian.Uint32(hdr[:]))
		if _, err := io.ReadFull(r, frame); err != nil {
			return out, err
		}
		d := xdr.NewDecoder(frame)
		xid, err1 := d.Uint32()
		dir, err2 := d.Uint32()
		status, err3 := d.Uint32()
		if err1 != nil || err2 != nil || err3 != nil || dir != nfs.MsgReply {
			return out, io.ErrUnexpectedEOF
		}
		out = append(out, reply{xid: xid, status: status, body: frame[12:]})
	}
}

// FuzzServeConn writes arbitrary bytes — a sequence of frames with
// bad lengths, truncated arguments, unknown procedures — at a live
// server on one connection, then one well-formed Getattr of the root.
// The server must never panic or hang; it must answer exactly the
// calls expectReplies predicts, in order, and close the connection on
// the first malformed frame. When the fuzzed bytes split into whole
// call frames, the Getattr must get a correct reply: nothing a garbage
// call left in the connection's reused encoder, decoder, frame buffers
// or loan may show in the next reply.
func FuzzServeConn(f *testing.F) {
	r := newRAMServer(f, 8192, 256)
	setup := r.dial(f, 1)
	root, rootAttr, err := setup.Mount(1)
	if err != nil {
		f.Fatalf("Mount: %v", err)
	}
	fh, _, err := setup.Create(root, "data")
	if err != nil {
		f.Fatalf("Create: %v", err)
	}
	if _, err := setup.Write(fh, 0, make([]byte, 3*core.BlockSize)); err != nil {
		f.Fatalf("Write: %v", err)
	}
	getattr := callFrame(fuzzXID, nfs.ProcGetattr, func(e *xdr.Encoder) { encodeFH(e, root) })

	// The xdr fuzz seeds, then frames a client could send.
	e := xdr.NewEncoder()
	e.Uint32(7)
	e.String("seed corpus")
	e.Uint64(1 << 40)
	e.Opaque([]byte{9, 9, 9})
	f.Add(e.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 1})
	read := func(fh nfs.FH, off int64, count uint32) func(*xdr.Encoder) {
		return func(e *xdr.Encoder) { encodeFH(e, fh); e.Int64(off); e.Uint32(count) }
	}
	f.Add(callFrame(1, nfs.ProcNull, nil))
	// An unknown procedure; truncated arguments.
	f.Add(callFrame(2, 99, nil))
	f.Add(callFrame(3, nfs.ProcRead, func(e *xdr.Encoder) { encodeFH(e, fh); e.Int64(0) }))
	// An oversized read count, then a write.
	f.Add(append(callFrame(4, nfs.ProcRead, read(fh, 0, 1<<20)),
		callFrame(5, nfs.ProcWrite, func(e *xdr.Encoder) { encodeFH(e, fh); e.Int64(4096); e.Opaque(make([]byte, 5000)) })...))
	// A stale handle; a reply instead of a call; a length past the data.
	f.Add(callFrame(6, nfs.ProcRead, read(nfs.FH{Vol: 1, File: 999, Gen: 1}, 0, 8)))
	f.Add([]byte{0, 0, 0, 12, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 40, 0, 0, 0, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		defer tidy(t, setup, root, fh)
		// The stream: the fuzzed bytes, the Getattr, zeros to complete
		// a frame left cut off, and a zero-length frame the server must
		// refuse — so the server closes first, having read everything.
		stream := append(append([]byte(nil), data...), getattr...)
		if _, _, _, missing := expectReplies(stream); missing > 0 {
			stream = append(stream, make([]byte, missing)...)
		}
		stream = append(stream, 0, 0, 0, 0)
		want, whole, _, _ := expectReplies(stream)
		// The Getattr is a frame of its own exactly when the fuzzed
		// bytes end on a frame boundary with every frame answered.
		_, _, ours, _ := expectReplies(data)

		conn, err := net.DialTimeout("tcp", r.addr, 10*time.Second)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		// Answer the server's close with a reset: neither side then
		// keeps a TIME-WAIT socket, which at thousands of connections a
		// second would soon slow every loopback connect down.
		defer func() {
			conn.(*net.TCPConn).SetLinger(0)
			conn.Close()
		}()
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		type result struct {
			replies []reply
			err     error
		}
		got := make(chan result, 1)
		go func() {
			rs, err := readReplies(conn)
			got <- result{rs, err}
		}()
		_, werr := conn.Write(stream)
		res := <-got
		if ne, ok := res.err.(net.Error); ok && ne.Timeout() {
			t.Fatalf("server neither answered nor closed within the deadline (%d replies)", len(res.replies))
		}
		if whole && werr != nil {
			t.Fatalf("server stopped reading before the end of the stream: %v", werr)
		}
		if len(res.replies) > len(want) || whole && len(res.replies) != len(want) {
			t.Fatalf("server sent %d replies, want %d (%v)", len(res.replies), len(want), res.err)
		}
		for i, rep := range res.replies {
			if rep.xid != want[i] {
				t.Fatalf("reply %d has xid %#x, want %#x", i, rep.xid, want[i])
			}
		}
		if ours {
			last := res.replies[len(res.replies)-1]
			if last.status != nfs.OK {
				t.Fatalf("Getattr after garbage: status %d", last.status)
			}
			checkRootAttr(t, last, rootAttr)
		}
	})
}

// tidy undoes what a fuzz input did to the volume: it removes every
// name under the root but "data" and cuts "data" back to three blocks.
// So each input starts from the same volume, and garbage writes never
// pile up until the RAM disk is full — a full disk parks writers for
// good, a server limit of its own that is not this target's subject.
func tidy(t *testing.T, cl *nfs.Client, root, data nfs.FH) {
	t.Helper()
	removeAll(cl, root, "data")
	if _, err := cl.SetSize(data, 3*core.BlockSize); err != nil {
		t.Fatalf("tidy: %v", err)
	}
}

// removeAll removes every name under dir except keep, depth first.
// Names it cannot look up (a fuzz input can create odd ones) stay.
func removeAll(cl *nfs.Client, dir nfs.FH, keep string) {
	ents, err := cl.Readdir(dir)
	if err != nil {
		return
	}
	for _, ent := range ents {
		if ent.Name == keep {
			continue
		}
		fh, attr, err := cl.Lookup(dir, ent.Name)
		if err != nil {
			continue
		}
		if attr.Type == core.TypeDirectory {
			removeAll(cl, fh, "")
			cl.Rmdir(dir, ent.Name)
		} else {
			cl.Remove(dir, ent.Name)
		}
	}
}

// checkRootAttr checks a Getattr reply of the root: exactly one
// attribute record (encodeAttr's eight fields), naming the root.
func checkRootAttr(t *testing.T, rep reply, root fsys.FileAttr) {
	t.Helper()
	const attrLen = 52
	if len(rep.body) != attrLen {
		t.Fatalf("Getattr reply carries %d result bytes, want %d", len(rep.body), attrLen)
	}
	d := xdr.NewDecoder(rep.body)
	id, _ := d.Uint64()
	typ, _ := d.Uint32()
	if core.FileID(id) != root.ID || core.FileType(typ) != root.Type {
		t.Fatalf("Getattr reply names file %d type %d, want the root (%d, %d)", id, typ, root.ID, root.Type)
	}
}
