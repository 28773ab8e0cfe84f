package examples

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/pfs"
	"repro/internal/sched"
)

// Example_multimedia demonstrates the derived file type the paper motivates:
// a continuous-media file whose instantiated object is "active" — it
// spawns its own thread of control that pre-loads the cache at the
// stream rate — and whose cache policy is drop-behind, so streaming
// a large file does not flood the cache and evict everyone else's
// working set.
func Example_multimedia() {
	dir, err := os.MkdirTemp("", "pfs-mm")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	srv, err := pfs.Open(pfs.Config{
		Path:        filepath.Join(dir, "pfs.img"),
		Blocks:      8192,
		CacheBlocks: 64, // deliberately small to show drop-behind
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	const movieBlocks = 48
	err = srv.Do(func(t sched.Task) error {
		// A regular hot file that must stay cached.
		h, err := srv.Vol.Create(t, "/hot.db", core.TypeRegular)
		if err != nil {
			return err
		}
		hot := bytes.Repeat([]byte{0xDB}, 4*core.BlockSize)
		if err := srv.Vol.Write(t, h, hot, int64(len(hot))); err != nil {
			return err
		}
		srv.Vol.Close(t, h)

		// The multimedia file: three quarters of the cache size.
		m, err := srv.Vol.Create(t, "/clip.mm", core.TypeMultimedia)
		if err != nil {
			return err
		}
		frame := bytes.Repeat([]byte{0x4D}, core.BlockSize)
		for i := 0; i < movieBlocks; i++ {
			if err := srv.Vol.WriteAt(t, m, int64(i)*core.BlockSize, frame, core.BlockSize); err != nil {
				return err
			}
		}
		srv.Vol.Close(t, m)
		return srv.FS.SyncAll(t)
	})
	if err != nil {
		log.Fatal(err)
	}

	// Stream the clip while touching the hot file; the stream's
	// blocks drop behind instead of evicting /hot.db.
	err = srv.Do(func(t sched.Task) error {
		hot, err := srv.Vol.Open(t, "/hot.db")
		if err != nil {
			return err
		}
		buf := make([]byte, core.BlockSize)
		srv.Vol.ReadAt(t, hot, 0, buf, core.BlockSize) // warm it

		clip, err := srv.Vol.Open(t, "/clip.mm") // spawns the active thread
		if err != nil {
			return err
		}
		for i := 0; i < movieBlocks; i++ {
			if _, err := srv.Vol.Read(t, clip, buf, core.BlockSize); err != nil {
				return err
			}
		}
		srv.Vol.Close(t, clip)

		kept := 0
		for i := core.BlockNo(0); i < movieBlocks; i++ {
			if srv.Cache.Peek(t, core.BlockKey{Vol: 1, File: clip.ID(), Blk: i}) {
				kept++
			}
		}
		hotCached := srv.Cache.Peek(t, core.BlockKey{Vol: 1, File: hot.ID(), Blk: 0})
		// The active thread races the reader, so how many stream
		// blocks stay cached varies run to run; the bound does not.
		fmt.Printf("streamed %d blocks; at most %d left in cache (drop-behind): %v\n",
			movieBlocks, movieBlocks/4, kept <= movieBlocks/4)
		fmt.Printf("hot file still cached: %v\n", hotCached)
		return srv.Vol.Close(t, hot)
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("multimedia example OK")
	// Output:
	// streamed 48 blocks; at most 12 left in cache (drop-behind): true
	// hot file still cached: true
	// multimedia example OK
}
