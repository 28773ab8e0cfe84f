// Package examples holds runnable examples of both instantiations of
// the component library: PFS, the on-line file system, and Patsy, the
// trace-driven simulator. Run them with go test -run Example -v.
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

// Example_quickstart creates an on-line PFS instance backed by an
// image file, stores and retrieves files through the abstract client
// interface, and survives a restart.
func Example_quickstart() {
	dir, err := os.MkdirTemp("", "pfs-quickstart")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	image := filepath.Join(dir, "pfs.img")

	// First life: format, write some files.
	srv, err := pfs.Open(pfs.Config{Path: image, Blocks: 4096, CacheBlocks: 256})
	if err != nil {
		log.Fatal(err)
	}
	err = srv.Do(func(t sched.Task) error {
		if err := srv.Vol.Mkdir(t, "/docs"); err != nil {
			return err
		}
		h, err := srv.Vol.Create(t, "/docs/hello.txt", core.TypeRegular)
		if err != nil {
			return err
		}
		msg := []byte("hello from the Pegasus file system\n")
		if err := srv.Vol.Write(t, h, msg, int64(len(msg))); err != nil {
			return err
		}
		return srv.Vol.Close(t, h)
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := srv.Close(); err != nil { // sync + checkpoint
		log.Fatal(err)
	}
	fmt.Println("wrote /docs/hello.txt and shut the server down")

	// Second life: reopen the image and read everything back.
	srv2, err := pfs.Open(pfs.Config{Path: image, Blocks: 4096, CacheBlocks: 256})
	if err != nil {
		log.Fatal(err)
	}
	defer srv2.Close()
	err = srv2.Do(func(t sched.Task) error {
		names, err := srv2.Vol.Readdir(t, "/docs")
		if err != nil {
			return err
		}
		fmt.Printf("after restart, /docs holds %v\n", names)
		h, err := srv2.Vol.Open(t, "/docs/hello.txt")
		if err != nil {
			return err
		}
		buf := make([]byte, h.Size())
		if _, err := srv2.Vol.Read(t, h, buf, h.Size()); err != nil {
			return err
		}
		fmt.Printf("contents: %s", buf)
		if !bytes.Contains(buf, []byte("Pegasus")) {
			return fmt.Errorf("contents corrupted")
		}
		return srv2.Vol.Close(t, h)
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("quickstart OK")
	// Output:
	// wrote /docs/hello.txt and shut the server down
	// after restart, /docs holds [hello.txt]
	// contents: hello from the Pegasus file system
	// quickstart OK
}
