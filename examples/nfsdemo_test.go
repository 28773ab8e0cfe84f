package examples

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/nfs"
	"repro/internal/pfs"
)

// Example_nfsdemo runs the whole on-line stack in one process: a PFS server
// with its network front-end on loopback, and a protocol client
// doing a realistic session against it — the PFS side of the
// cut-and-paste story.
func Example_nfsdemo() {
	dir, err := os.MkdirTemp("", "pfs-nfsdemo")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	srv, err := pfs.Open(pfs.Config{
		Path:        filepath.Join(dir, "pfs.img"),
		Blocks:      4096,
		CacheBlocks: 256,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	addr, err := srv.ServeNFS("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	cl, err := nfs.Dial(addr)
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	root, rootAttr, err := cl.Mount(1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mounted volume 1: root inode %d (%s)\n", rootAttr.ID, rootAttr.Type)

	// A session: project dir, two files, a rename, a listing.
	proj, _, err := cl.Mkdir(root, "project")
	if err != nil {
		log.Fatal(err)
	}
	readme, _, err := cl.Create(proj, "README")
	if err != nil {
		log.Fatal(err)
	}
	text := []byte("cut-and-paste file systems: the on-line half\n")
	if _, err := cl.Write(readme, 0, text); err != nil {
		log.Fatal(err)
	}
	if _, _, err := cl.Create(proj, "draft.txt"); err != nil {
		log.Fatal(err)
	}
	if err := cl.Rename(proj, "draft.txt", proj, "final.txt"); err != nil {
		log.Fatal(err)
	}
	if _, _, err := cl.Symlink(proj, "latest", "final.txt"); err != nil {
		log.Fatal(err)
	}

	ents, err := cl.Readdir(proj)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("project/ holds:")
	for _, e := range ents {
		_, attr, _ := cl.Lookup(proj, e.Name)
		fmt.Printf("  %-10s %6d  %s\n", attr.Type, attr.Size, e.Name)
	}

	back, err := cl.Read(readme, 0, 1024)
	if err != nil || !bytes.Equal(back, text) {
		log.Fatalf("read back failed: %v", err)
	}
	fmt.Printf("README round-tripped over the wire: %s", back)

	info, err := cl.StatFS(root)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("volume: layout %s, %d free blocks\n", info.Layout, info.FreeBlocks)
	fmt.Println("nfsdemo OK")
	// Output:
	// mounted volume 1: root inode 2 (directory)
	// project/ holds:
	//   regular        45  README
	//   regular         0  final.txt
	//   symlink         9  latest
	// README round-tripped over the wire: cut-and-paste file systems: the on-line half
	// volume: layout lfs, 3937 free blocks
	// nfsdemo OK
}
