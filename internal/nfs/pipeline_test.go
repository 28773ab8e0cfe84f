package nfs_test

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/nfs"
	"repro/internal/xdr"
)

// rawConn speaks the wire format directly, bypassing the client
// transports, so tests control exactly what is on the wire.
type rawConn struct {
	t    *testing.T
	conn net.Conn
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawConn{t: t, conn: conn}
}

func (r *rawConn) send(xid, proc uint32, args func(*xdr.Encoder)) {
	e := xdr.NewEncoder()
	e.Uint32(xid)
	e.Uint32(0) // MsgCall
	e.Uint32(proc)
	if args != nil {
		args(e)
	}
	payload := e.Bytes()
	hdr := []byte{byte(len(payload) >> 24), byte(len(payload) >> 16), byte(len(payload) >> 8), byte(len(payload))}
	if _, err := r.conn.Write(append(hdr, payload...)); err != nil {
		r.t.Errorf("send: %v", err)
	}
}

// recvXID reads one reply frame and returns its xid.
func (r *rawConn) recvXID() (uint32, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r.conn, hdr[:]); err != nil {
		return 0, err
	}
	n := int(hdr[0])<<24 | int(hdr[1])<<16 | int(hdr[2])<<8 | int(hdr[3])
	payload := make([]byte, n)
	if _, err := io.ReadFull(r.conn, payload); err != nil {
		return 0, err
	}
	d := xdr.NewDecoder(payload)
	xid, err := d.Uint32()
	if err != nil {
		return 0, err
	}
	return xid, nil
}

// encodeRawFH mirrors the wire handle layout (vol uint32, file
// uint64) without the unexported helpers.
func encodeRawFH(e *xdr.Encoder, fh nfs.FH) {
	e.Uint32(uint32(fh.Vol))
	e.Uint64(uint64(fh.File))
}

// Pipelined calls on one connection must come back in request
// order, even when a mix of cheap and expensive procedures is
// queued and several connections hammer the server concurrently.
func TestPipelineReplyOrdering(t *testing.T) {
	_, cl, addr := startServerAddr(t)
	root, _, err := cl.Mount(1)
	if err != nil {
		t.Fatalf("mount: %v", err)
	}
	fh, _, err := cl.Create(root, "ordered.dat")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	payload := bytes.Repeat([]byte("x"), 32<<10)
	if _, err := cl.Write(fh, 0, payload); err != nil {
		t.Fatalf("write: %v", err)
	}

	const conns = 4
	const calls = 120
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		raw := dialRaw(t, addr)
		go func() {
			defer wg.Done()
			// Writer: fire the whole pipeline without waiting.
			go func() {
				for i := uint32(1); i <= calls; i++ {
					switch i % 3 {
					case 0:
						raw.send(i, nfs.ProcNull, nil)
					case 1:
						raw.send(i, nfs.ProcRead, func(e *xdr.Encoder) {
							encodeRawFH(e, fh)
							e.Int64(0)
							e.Uint32(32 << 10)
						})
					default:
						raw.send(i, nfs.ProcGetattr, func(e *xdr.Encoder) { encodeRawFH(e, fh) })
					}
				}
			}()
			for i := uint32(1); i <= calls; i++ {
				xid, err := raw.recvXID()
				if err != nil {
					t.Errorf("recv %d: %v", i, err)
					return
				}
				if xid != i {
					t.Errorf("reply %d has xid %d: replies out of order", i, xid)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// The pipelined client transport demultiplexes concurrent callers
// on one connection correctly: every caller gets its own reply.
func TestPipeClientConcurrent(t *testing.T) {
	_, cl, addr := startServerAddr(t)
	root, _, _ := cl.Mount(1)
	// One file per worker with distinct content.
	const workers = 8
	fhs := make([]nfs.FH, workers)
	for i := range fhs {
		fh, _, err := cl.Create(root, fmt.Sprintf("w%d", i))
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		if _, err := cl.Write(fh, 0, bytes.Repeat([]byte{byte('a' + i)}, 4096)); err != nil {
			t.Fatalf("write: %v", err)
		}
		fhs[i] = fh
	}
	pc, err := nfs.DialPipeline(addr, 4)
	if err != nil {
		t.Fatalf("DialPipeline: %v", err)
	}
	defer pc.Close()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			want := bytes.Repeat([]byte{byte('a' + w)}, 4096)
			for i := 0; i < 50; i++ {
				got, err := pc.Read(fhs[w], 0, 4096)
				if err != nil {
					t.Errorf("worker %d read: %v", w, err)
					return
				}
				if !bytes.Equal(got, want) {
					t.Errorf("worker %d got another worker's data", w)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// Drain under load: calls admitted into a connection's pipeline
// before the drain all complete with replies before Drain returns;
// nothing new is admitted afterwards.
func TestDrainUnderLoadPipelined(t *testing.T) {
	srv, cl, _ := startServerAddr(t)
	root, _, _ := cl.Mount(1)
	fh, _, err := cl.Create(root, "drain.dat")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := cl.Write(fh, 0, bytes.Repeat([]byte("d"), 16<<10)); err != nil {
		t.Fatalf("write: %v", err)
	}
	// A dedicated pipelined server front-end we can Drain directly.
	net2, err := nfs.ServeOpts(srv.K, srv.FS, "127.0.0.1:0", nfs.Options{Pipeline: 8})
	if err != nil {
		t.Fatalf("ServeOpts: %v", err)
	}
	defer net2.Close()

	raw := dialRaw(t, net2.Addr())
	const burst = 6
	for i := uint32(1); i <= burst; i++ {
		raw.send(i, nfs.ProcRead, func(e *xdr.Encoder) {
			encodeRawFH(e, fh)
			e.Int64(0)
			e.Uint32(16 << 10)
		})
	}
	// Drain once the whole burst is admitted: the reader has counted
	// one pipeline-depth observation per admitted call. (A first reply
	// proves only that the first call was.)
	for deadline := time.Now().Add(5 * time.Second); net2.ServerStats().Depth.Total() < burst; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d calls admitted", net2.ServerStats().Depth.Total(), burst)
		}
		time.Sleep(time.Millisecond)
	}
	drained := make(chan struct{})
	go func() {
		net2.Drain()
		close(drained)
	}()
	// Every admitted call's reply still arrives, in order, and none is
	// lost to a reset when the drained connection closes.
	for i := uint32(1); i <= burst; i++ {
		xid, err := raw.recvXID()
		if err != nil {
			t.Fatalf("reply %d after drain: %v", i, err)
		}
		if xid != i {
			t.Fatalf("reply %d has xid %d", i, xid)
		}
	}
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain did not return after in-flight calls completed")
	}
	// The drained connection is closed once its pipeline empties:
	// nothing new gets a reply. (The write itself may fail — the
	// server has already closed the connection — which is equally
	// conclusive.)
	e := xdr.NewEncoder()
	e.Uint32(burst + 1)
	e.Uint32(0)
	e.Uint32(nfs.ProcNull)
	payload := e.Bytes()
	hdr := []byte{0, 0, byte(len(payload) >> 8), byte(len(payload))}
	if _, err := raw.conn.Write(append(hdr, payload...)); err == nil {
		if xid, err := raw.recvXID(); err == nil {
			t.Fatalf("got reply xid %d after drain", xid)
		}
	}
}

// TestDrainSurvivesUnreadInput: a drained connection that closes with
// requests still unread in its socket must not reset the connection —
// a reset can destroy the replies it already wrote before the client
// reads them. With a window of 1 a call or two is admitted; half a
// megabyte of writes queues behind them, unread; the drain must still
// deliver every admitted call's reply, then a clean EOF.
func TestDrainSurvivesUnreadInput(t *testing.T) {
	srv, cl, _ := startServerAddr(t)
	root, _, _ := cl.Mount(1)
	fh, _, err := cl.Create(root, "unread.dat")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := cl.Write(fh, 0, bytes.Repeat([]byte("u"), 16<<10)); err != nil {
		t.Fatalf("write: %v", err)
	}
	net2, err := nfs.ServeOpts(srv.K, srv.FS, "127.0.0.1:0", nfs.Options{Pipeline: 1})
	if err != nil {
		t.Fatalf("ServeOpts: %v", err)
	}
	defer net2.Close()

	raw := dialRaw(t, net2.Addr())
	raw.send(1, nfs.ProcRead, func(e *xdr.Encoder) {
		encodeRawFH(e, fh)
		e.Int64(0)
		e.Uint32(16 << 10)
	})
	go func() {
		// The backlog: writes the server never reads. The sends may
		// fail once the server closes; that is not the point here.
		for i := uint32(2); i < 10; i++ {
			e := xdr.NewEncoder()
			e.Uint32(i)
			e.Uint32(0) // MsgCall
			e.Uint32(nfs.ProcWrite)
			encodeRawFH(e, fh)
			e.Int64(0)
			e.Opaque(make([]byte, 60<<10))
			payload := e.Bytes()
			hdr := []byte{byte(len(payload) >> 24), byte(len(payload) >> 16), byte(len(payload) >> 8), byte(len(payload))}
			if _, err := raw.conn.Write(append(hdr, payload...)); err != nil {
				return
			}
		}
	}()
	for deadline := time.Now().Add(5 * time.Second); net2.ServerStats().Depth.Total() < 1; {
		if time.Now().After(deadline) {
			t.Fatal("the first call was never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	net2.Drain()
	admitted := uint32(net2.ServerStats().Depth.Total())
	for i := uint32(1); i <= admitted; i++ {
		if xid, err := raw.recvXID(); err != nil || xid != i {
			t.Fatalf("reply %d of %d admitted after drain: xid %d err %v", i, admitted, xid, err)
		}
	}
	if xid, err := raw.recvXID(); err != io.EOF {
		t.Fatalf("after the last reply: xid %d err %v, want a clean EOF", xid, err)
	}
}
