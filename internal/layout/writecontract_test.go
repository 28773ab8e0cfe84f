package layout_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/layout"
	"repro/internal/sched"
)

// TestWriteBlocksKeepsNoReference pins the WriteBlocks contract: once
// the call returns, successful or not, the layout holds no reference
// to the caller's buffers. The test scribbles over every buffer the
// moment WriteBlocks returns — once on the success path, once with
// every device write failing — then makes the volume durable and reads
// the blocks back: no read may return the scribble. Where the failed
// job stays staged (the log), the blocks read back as written.
func TestWriteBlocksKeepsNoReference(t *testing.T) {
	for _, rg := range rigs {
		t.Run(rg.name, func(t *testing.T) {
			k := sched.NewVirtual(9)
			drvs := make([]device.Driver, rg.width)
			parts := make([]*layout.Partition, rg.width)
			for i := range parts {
				drvs[i] = device.NewMemDriver(k, fmt.Sprintf("mem%d", i), rigBlocks, nil)
				parts[i] = layout.NewPartition(drvs[i], i, 0, rigBlocks, false)
			}
			lay, err := rg.build(k, parts, false)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			scribble := bytes.Repeat([]byte{0xEE}, core.BlockSize)
			// write writes blocks [from, from+n) of file a (generation
			// gen), scribbles over the buffers and returns the error.
			write := func(tk sched.Task, a *layout.Inode, from, n, gen int) error {
				ws := make([]layout.BlockWrite, n)
				for i := range ws {
					ws[i] = layout.BlockWrite{Blk: core.BlockNo(from + i), Data: pattern(gen, from+i), Size: core.BlockSize}
				}
				err := lay.WriteBlocks(tk, a, ws)
				for _, w := range ws {
					copy(w.Data, scribble)
				}
				return err
			}
			k.Go("test", func(tk sched.Task) {
				defer k.Stop()
				must := func(what string, err error) {
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
				}
				must("Format", lay.Format(tk))
				must("Mount", lay.Mount(tk))
				_, err := lay.AllocInode(tk, core.TypeDirectory)
				must("AllocInode root", err)
				a, err := lay.AllocInode(tk, core.TypeRegular)
				must("AllocInode", err)
				a.Size = 16 * core.BlockSize
				must("write", write(tk, a, 0, 16, 1))
				must("UpdateInode", lay.UpdateInode(tk, a))
				must("Sync", lay.Sync(tk))

				// Every device write fails: the job's error comes back
				// after the layout has staged (or dropped) the blocks.
				plan := device.NewFaultPlan(device.FaultConfig{Seed: 9, WriteErrRate: 1})
				for _, d := range drvs {
					d.SetInjector(plan)
				}
				if err := write(tk, a, 4, 8, 2); err == nil {
					t.Fatal("WriteBlocks succeeded with every device write failing")
				}
				for _, d := range drvs {
					d.SetInjector(nil)
				}
				must("UpdateInode", lay.UpdateInode(tk, a))
				must("Sync after the fault", lay.Sync(tk))

				got := make([]byte, core.BlockSize)
				for b := 0; b < 16; b++ {
					if _, err := lay.ReadRunVec(tk, a, core.BlockNo(b), 1, [][]byte{got}); err != nil {
						t.Fatalf("read b%d: %v", b, err)
					}
					switch {
					case bytes.Equal(got, scribble):
						t.Fatalf("b%d reads the bytes written over the caller's buffer after WriteBlocks returned", b)
					case bytes.Equal(got, pattern(1, b)):
						if rg.pending && b >= 4 && b < 12 {
							t.Fatalf("b%d: the log dropped the failed job's staged block", b)
						}
					case !bytes.Equal(got, pattern(2, b)):
						t.Fatalf("b%d reads neither generation", b)
					}
				}
			})
			if err := k.Run(); err != nil {
				t.Fatalf("Run: %v", err)
			}
		})
	}
}
