package experiments

import (
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
	"repro/internal/stack"
)

// TestCutAndPasteEquivalence is the paper's thesis as a test: the
// same component code, instantiated once as the on-line system
// (real-time kernel, real memory, real bytes on a RAM disk) and once
// as the simulator (virtual-time kernel, no data, modeled disk),
// runs the same operation script and ends in the same file-system
// state — names, sizes, types, link counts.
func TestCutAndPasteEquivalence(t *testing.T) {
	script := func(tk sched.Task, v *fsys.Volume, sim bool) error {
		if err := v.Mkdir(tk, "/home"); err != nil {
			return err
		}
		if err := v.Mkdir(tk, "/home/user"); err != nil {
			return err
		}
		for i := 0; i < 5; i++ {
			h, err := v.Create(tk, fmt.Sprintf("/home/user/f%d", i), core.TypeRegular)
			if err != nil {
				return err
			}
			if err := v.Write(tk, h, nilOrBytes(sim, (i+1)*3000), int64((i+1)*3000)); err != nil {
				return err
			}
			if err := v.Close(tk, h); err != nil {
				return err
			}
		}
		if err := v.Remove(tk, "/home/user/f1"); err != nil {
			return err
		}
		if err := v.Rename(tk, "/home/user/f2", "/home/user/renamed"); err != nil {
			return err
		}
		h, err := v.Open(tk, "/home/user/f3")
		if err != nil {
			return err
		}
		if err := v.Truncate(tk, h, 1000); err != nil {
			return err
		}
		if err := v.Close(tk, h); err != nil {
			return err
		}
		if err := v.Symlink(tk, "/home/user/link", "/home/user/f0"); err != nil {
			return err
		}
		return nil
	}

	type entry struct {
		name string
		typ  core.FileType
		size int64
	}
	snapshot := func(tk sched.Task, v *fsys.Volume) ([]entry, error) {
		names, err := v.Readdir(tk, "/home/user")
		if err != nil {
			return nil, err
		}
		var out []entry
		for _, n := range names {
			st, err := v.Stat(tk, "/home/user/"+n)
			if err != nil {
				return nil, err
			}
			out = append(out, entry{name: n, typ: st.Type, size: st.Size})
		}
		return out, nil
	}

	// Both instantiations come from the one stack builder; they
	// differ only in the kernel, the driver and the Simulated flag.
	run := func(k sched.Kernel, drv device.Driver, sim bool) []entry {
		sc := stack.Config{Simulated: sim, SegBlocks: 32}
		arr, err := sc.Array(k, "vol", []*layout.Partition{sc.Partition(drv, 0, 0, 4096)})
		if err != nil {
			t.Fatal(err)
		}
		fs, _ := sc.FrontEnd(k, cache.Config{Blocks: 128, Flush: cache.UPS()})
		var state []entry
		var runErr error
		k.Go("script", func(tk sched.Task) {
			runErr = func() error {
				if err := arr.Format(tk); err != nil {
					return err
				}
				if err := arr.Mount(tk); err != nil {
					return err
				}
				v, err := fs.AddVolume(tk, 1, arr)
				if err != nil {
					return err
				}
				if err := script(tk, v, sim); err != nil {
					return err
				}
				state, err = snapshot(tk, v)
				return err
			}()
			k.Stop()
		})
		if err := k.Run(); err != nil {
			t.Fatalf("simulated=%v: run: %v", sim, err)
		}
		if runErr != nil {
			t.Fatalf("simulated=%v: %v", sim, runErr)
		}
		return state
	}

	// On-line instantiation: real kernel, real data, RAM device.
	rk := sched.NewReal(1)
	realState := run(rk, device.NewMemDriver(rk, "d0", 4096, nil), false)

	// Simulated instantiation: virtual kernel, modeled HP 97560, no
	// data anywhere.
	vk := sched.NewVirtual(1)
	b := bus.New(vk, bus.SCSI2("scsi0"))
	dd := disk.New(vk, disk.HP97560("d0"), b)
	dd.Start()
	simState := run(vk, device.NewSimDriver(vk, "d0.drv", dd, b, nil), true)

	// The two worlds must agree exactly.
	if len(realState) != len(simState) {
		t.Fatalf("state size differs: real %v, sim %v", realState, simState)
	}
	for i := range realState {
		if realState[i] != simState[i] {
			t.Errorf("entry %d differs: real %+v, sim %+v", i, realState[i], simState[i])
		}
	}
	want := []string{"f0", "f3", "f4", "link", "renamed"}
	for i, e := range realState {
		if e.name != want[i] {
			t.Fatalf("final namespace %v, want names %v", realState, want)
		}
	}
}

// nilOrBytes gives the real instantiation actual bytes and the
// simulated one nil, matching each world's data discipline.
func nilOrBytes(sim bool, n int) []byte {
	if sim {
		return nil
	}
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)
	}
	return b
}
