package stack

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/disk"
	"repro/internal/layout"
	"repro/internal/sched"
	"repro/internal/volume"
)

// memberBlocks sizes every member partition.
const memberBlocks = 4096

// TestBuilderOnBothKernels makes the same builder calls on the
// virtual kernel over modeled disks (simulated) and on the real
// kernel over RAM disks: every layout at width 1 and as a 3-wide
// parity array formats, mounts, takes files and syncs. The real
// stacks then remount from their drivers and check clean.
func TestBuilderOnBothKernels(t *testing.T) {
	for _, sim := range []bool{true, false} {
		for _, lay := range []string{"lfs", "ffs"} {
			for _, width := range []int{1, 3} {
				name := fmt.Sprintf("sim=%v/%s/width%d", sim, lay, width)
				t.Run(name, func(t *testing.T) {
					sc := Config{Simulated: sim, Layout: lay, ClusterRun: layout.DefaultClusterRun}
					if width > 1 {
						sc.Placement = "parity"
					}
					var k sched.Kernel
					var drvs []device.Driver
					if sim {
						k = sched.NewVirtual(1)
						for i := 0; i < width; i++ {
							b := bus.New(k, bus.SCSI2(fmt.Sprintf("scsi%d", i)))
							dd := disk.New(k, disk.HP97560(fmt.Sprintf("disk%d", i)), b)
							dd.Start()
							drvs = append(drvs, device.NewSimDriver(k, fmt.Sprintf("disk%d.drv", i), dd, b, nil))
						}
					} else {
						k = sched.NewReal(1)
						for i := 0; i < width; i++ {
							drvs = append(drvs, device.NewMemDriver(k, fmt.Sprintf("mem%d", i), memberBlocks, nil))
						}
					}
					parts := func() []*layout.Partition {
						ps := make([]*layout.Partition, width)
						for i, drv := range drvs {
							ps[i] = sc.Partition(drv, i, 0, memberBlocks)
						}
						return ps
					}
					arr, err := sc.Array(k, "vol", parts())
					if err != nil {
						t.Fatal(err)
					}
					fs, _ := sc.FrontEnd(k, cache.Config{Blocks: 64, Flush: cache.UPS()})
					var runErr error
					k.Go("test", func(tk sched.Task) {
						runErr = func() error {
							if err := arr.Format(tk); err != nil {
								return fmt.Errorf("format: %w", err)
							}
							if err := arr.Mount(tk); err != nil {
								return fmt.Errorf("mount: %w", err)
							}
							v, err := fs.AddVolume(tk, 1, arr)
							if err != nil {
								return err
							}
							for f := 0; f < 4; f++ {
								n := (f + 1) * 3 * core.BlockSize
								var data []byte
								if !sim {
									data = bytes.Repeat([]byte{byte(f + 1)}, n)
								}
								h, err := v.Create(tk, fmt.Sprintf("/f%d", f), core.TypeRegular)
								if err != nil {
									return err
								}
								if err := v.Write(tk, h, data, int64(n)); err != nil {
									return err
								}
								if err := v.Close(tk, h); err != nil {
									return err
								}
							}
							if err := fs.SyncAll(tk); err != nil {
								return fmt.Errorf("sync: %w", err)
							}
							if sim {
								return nil
							}
							again, err := sc.Array(k, "vol", parts())
							if err != nil {
								return err
							}
							if err := again.Mount(tk); err != nil {
								return fmt.Errorf("remount: %w", err)
							}
							return checkClean(tk, again)
						}()
						k.Stop()
					})
					if err := k.Run(); err != nil {
						t.Fatal(err)
					}
					if runErr != nil {
						t.Fatal(runErr)
					}
				})
			}
		}
	}
}

// checkClean runs every member's own check.
func checkClean(t sched.Task, arr *volume.Array) error {
	for i, sub := range arr.Subs() {
		if errs := sub.Check(t); len(errs) > 0 {
			return fmt.Errorf("member %d: %v", i, errs)
		}
	}
	return nil
}

// TestMemberName pins the naming rule every array shares.
func TestMemberName(t *testing.T) {
	for _, c := range []struct {
		w, i int
		want string
	}{{1, 0, "vol1"}, {3, 0, "vol1.d0"}, {3, 2, "vol1.d2"}} {
		if got := MemberName("vol1", c.w, c.i); got != c.want {
			t.Errorf("MemberName(vol1, %d, %d) = %q, want %q", c.w, c.i, got, c.want)
		}
	}
}

// TestUnknownLayoutRefused: the one layout switch names what it
// refuses.
func TestUnknownLayoutRefused(t *testing.T) {
	k := sched.NewReal(1)
	defer k.Stop()
	drv := device.NewMemDriver(k, "mem0", 64, nil)
	defer drv.Close()
	sc := Config{Layout: "xfs"}
	if _, err := sc.Array(k, "vol", []*layout.Partition{sc.Partition(drv, 0, 0, 64)}); err == nil {
		t.Fatal("unknown layout accepted")
	}
}
