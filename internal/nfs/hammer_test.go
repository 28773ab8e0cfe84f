package nfs_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/nfs"
)

// blockPattern fills b (one block) with the content of block blk of
// file f at version ver. The first three words name all three, so a
// block that comes back wrong says whose bytes it carries.
func blockPattern(b []byte, f, blk, ver int) {
	binary.BigEndian.PutUint32(b[0:], uint32(f))
	binary.BigEndian.PutUint32(b[4:], uint32(blk))
	binary.BigEndian.PutUint32(b[8:], uint32(ver))
	for i := 12; i < len(b); i++ {
		b[i] = byte(i*131 + f*7 + blk*13 + ver*29)
	}
}

// TestRecycledFrameAliasingHammer hammers the per-connection buffer
// recycling: four pipelined clients (window 4, four callers each) keep
// calls queued behind each other on every connection, so frame buffers
// go round their free lists while earlier calls still execute. Every
// caller owns one file, writes per-(file, block, version) patterns —
// runs of one to four blocks, whose frames fit connReadBuf and go round
// the free lists, and every fourth round a MaxIO write, whose frame
// takes the allocate-and-drop path — and reads them back, checking
// every byte. A frame put back on the free list before its call is
// done lets the reader overwrite the payload WriteAt is copying; that
// surfaces here as a data race under -race, or as another call's bytes
// in a block. Each caller scribbles over its write buffer as soon as
// Write returns, which pins the client's by-reference send: a payload
// still referenced after Write returned would reach the server
// scribbled, and the read-back would show it.
//
// Meanwhile one writer overwrites a shared file whose blocks every
// connection is reading — loaned frames in flight to the socket — in
// the style of the pfs frame-pinning hammer: a borrowed block must come
// back whole at one version, never torn, and never older than a
// version its reader already saw.
func TestRecycledFrameAliasingHammer(t *testing.T) {
	if testing.Short() {
		t.Skip("hammer test in -short mode")
	}
	const (
		clients    = 4
		callers    = 4 // goroutines per client, sharing its window
		window     = 4
		fileBlocks = nfs.MaxIO / core.BlockSize
		rounds     = 40
		sharedBlks = 8
	)
	r := newRAMServer(t, 8192, 512, false)
	setup := r.dial(t, 1)
	root, _, err := setup.Mount(1)
	if err != nil {
		t.Fatalf("Mount: %v", err)
	}
	block := make([]byte, core.BlockSize)
	shared, _, err := setup.Create(root, "shared")
	if err != nil {
		t.Fatalf("Create shared: %v", err)
	}
	for blk := 0; blk < sharedBlks; blk++ {
		blockPattern(block, -1, blk, 0)
		if _, err := setup.Write(shared, int64(blk)*core.BlockSize, block); err != nil {
			t.Fatalf("Write shared: %v", err)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients*callers+1)
	stop := make(chan struct{})
	for c := 0; c < clients; c++ {
		cl := r.dial(t, window)
		for g := 0; g < callers; g++ {
			f := c*callers + g
			fh, _, err := cl.Create(root, fmt.Sprintf("f%d", f))
			if err != nil {
				t.Fatalf("Create: %v", err)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := ownFile(cl, fh, shared, f, rounds, fileBlocks, sharedBlks); err != nil {
					errs <- err
				}
			}()
		}
	}
	// The overwriter: new versions of the shared blocks while every
	// connection reads them.
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		cl := r.dial(t, window)
		buf := make([]byte, core.BlockSize)
		for ver := 1; ; ver++ {
			select {
			case <-stop:
				return
			default:
			}
			blk := ver % sharedBlks
			blockPattern(buf, -1, blk, ver)
			if _, err := cl.Write(shared, int64(blk)*core.BlockSize, buf); err != nil {
				errs <- fmt.Errorf("shared overwrite: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-writerDone
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// ownFile is one caller of the hammer: rounds of pattern writes to its
// own file f and byte-exact read-backs, each followed by a read of the
// shared file.
func ownFile(cl *nfs.Client, fh, shared nfs.FH, f, rounds, fileBlocks, sharedBlks int) error {
	rng := rand.New(rand.NewSource(int64(f) + 1))
	vers := make([]int, fileBlocks) // 0: never written
	buf := make([]byte, nfs.MaxIO)
	want := make([]byte, core.BlockSize)
	seen := make([]int, sharedBlks)
	for round := 1; round <= rounds; round++ {
		// A write: the whole file at MaxIO every fourth round, else a
		// run of 1-4 blocks.
		first, n := 0, fileBlocks
		if round%4 != 0 {
			n = 1 + rng.Intn(4)
			first = rng.Intn(fileBlocks - n + 1)
		}
		for i := 0; i < n; i++ {
			blockPattern(buf[i*core.BlockSize:(i+1)*core.BlockSize], f, first+i, round)
			vers[first+i] = round
		}
		if _, err := cl.Write(fh, int64(first)*core.BlockSize, buf[:n*core.BlockSize]); err != nil {
			return fmt.Errorf("file %d round %d: write: %w", f, round, err)
		}
		// Write returned, so the buffer is the caller's again: a
		// version no block ever holds.
		for i := 0; i < n; i++ {
			blockPattern(buf[i*core.BlockSize:(i+1)*core.BlockSize], f, first+i, -round)
		}
		// A read-back of a random written run, up to MaxIO.
		first = rng.Intn(fileBlocks)
		for vers[first] == 0 {
			first = (first + 1) % fileBlocks
		}
		n = 1 + rng.Intn(fileBlocks-first)
		for i := 1; i < n; i++ {
			if vers[first+i] == 0 {
				n = i
				break
			}
		}
		got, err := cl.Read(fh, int64(first)*core.BlockSize, n*core.BlockSize)
		if err != nil {
			return fmt.Errorf("file %d round %d: read: %w", f, round, err)
		}
		if len(got) != n*core.BlockSize {
			return fmt.Errorf("file %d round %d: read %d bytes, want %d", f, round, len(got), n*core.BlockSize)
		}
		for i := 0; i < n; i++ {
			blockPattern(want, f, first+i, vers[first+i])
			if b := got[i*core.BlockSize : (i+1)*core.BlockSize]; !bytes.Equal(b, want) {
				return fmt.Errorf("file %d round %d: block %d is not version %d; it carries file %d block %d version %d",
					f, round, first+i, vers[first+i], int32(binary.BigEndian.Uint32(b)), binary.BigEndian.Uint32(b[4:]), binary.BigEndian.Uint32(b[8:]))
			}
		}
		// A borrowed read of the shared file, racing its overwriter.
		got, err = cl.Read(shared, 0, sharedBlks*core.BlockSize)
		if err != nil {
			return fmt.Errorf("file %d round %d: shared read: %w", f, round, err)
		}
		for blk := 0; blk*core.BlockSize < len(got); blk++ {
			b := got[blk*core.BlockSize : min((blk+1)*core.BlockSize, len(got))]
			ver := int(binary.BigEndian.Uint32(b[8:]))
			blockPattern(want, -1, blk, ver)
			if !bytes.Equal(b, want[:len(b)]) {
				return fmt.Errorf("shared block %d torn: header says version %d, bytes disagree", blk, ver)
			}
			if ver < seen[blk] {
				return fmt.Errorf("shared block %d went back from version %d to %d", blk, seen[blk], ver)
			}
			seen[blk] = ver
		}
	}
	return nil
}
