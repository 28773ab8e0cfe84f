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
	"repro/internal/fsys"
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
// stacks then remount from their drivers and check clean. Then the
// power is cut with more files written since the sync, and the shared
// recovery brings the battery back on a fresh front-end: every file is
// listed again, and the real stacks read theirs back.
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
					plan := device.NewFaultPlan(device.FaultConfig{})
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
					for _, drv := range drvs {
						drv.SetInjector(plan)
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
					cc := cache.Config{Blocks: 64, Flush: cache.UPS(), IntentSlots: IntentSlots(true)}
					fs, ca := sc.FrontEnd(k, cc)
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
								if err := writeFile(tk, v, f, (f+1)*3, sim); err != nil {
									return err
								}
							}
							if err := fs.SyncAll(tk); err != nil {
								return fmt.Errorf("sync: %w", err)
							}
							if !sim {
								again, err := sc.Array(k, "vol", parts())
								if err != nil {
									return err
								}
								if err := again.Mount(tk); err != nil {
									return fmt.Errorf("remount: %w", err)
								}
								if err := checkClean(tk, again); err != nil {
									return err
								}
							}

							for f := 4; f < 8; f++ {
								if err := writeFile(tk, v, f, 2, sim); err != nil {
									return err
								}
							}
							plan.Cut()
							ca.PowerOff()
							b := ReadBattery(ca.Crash(tk), arr)
							plan.Restore()
							// A simulated array's in-memory state is its
							// image; a real one is rebuilt from the drivers.
							rec := arr
							if !sim {
								if rec, err = sc.Array(k, "vol", parts()); err != nil {
									return err
								}
							}
							fs2, _ := sc.FrontEnd(k, cc)
							r, err := Mount(tk, fs2, false, b, rec)
							if err != nil {
								return fmt.Errorf("recovery: %w", err)
							}
							if r.Replayed == 0 || r.IntentsApplied == 0 {
								return fmt.Errorf("recovery replayed nothing: %+v", r)
							}
							for f := 0; f < 8; f++ {
								if err := readFile(tk, fs2.Vol(1), f, sim); err != nil {
									return err
								}
							}
							if sim {
								return nil
							}
							return checkClean(tk, rec)
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

// fileData is file f's content on a payload-moving stack (nil on a
// simulated one).
func fileData(f, n int, sim bool) []byte {
	if sim {
		return nil
	}
	return bytes.Repeat([]byte{byte(f + 1)}, n)
}

// writeFile creates /f<f> holding blocks blocks of fileData.
func writeFile(t sched.Task, v *fsys.Volume, f, blocks int, sim bool) error {
	n := blocks * core.BlockSize
	h, err := v.Create(t, fmt.Sprintf("/f%d", f), core.TypeRegular)
	if err != nil {
		return err
	}
	if err := v.Write(t, h, fileData(f, n, sim), int64(n)); err != nil {
		return err
	}
	return v.Close(t, h)
}

// readFile opens /f<f> and, on a payload-moving stack, reads it back.
func readFile(t sched.Task, v *fsys.Volume, f int, sim bool) error {
	h, err := v.Open(t, fmt.Sprintf("/f%d", f))
	if err != nil {
		return err
	}
	defer v.Close(t, h)
	if sim {
		return nil
	}
	size := v.StatHandle(t, h).Size
	buf := make([]byte, size)
	if _, err := v.Read(t, h, buf, size); err != nil {
		return err
	}
	if !bytes.Equal(buf, fileData(f, len(buf), sim)) {
		return fmt.Errorf("/f%d: %d bytes read back wrong", f, len(buf))
	}
	return nil
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
