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
	"repro/internal/lfs"
	"repro/internal/sched"
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

	// On-line instantiation: real kernel, real data, RAM device.
	var realState []entry
	{
		k := sched.NewReal(1)
		drv := device.NewMemDriver(k, "mem0", 4096, nil)
		part := layout.NewPartition(drv, 0, 0, 4096, false)
		lay := lfs.New(k, "real", part, lfs.Config{SegBlocks: 32})
		store := fsys.NewStore()
		c := cache.New(k, cache.Config{Blocks: 128, Flush: cache.UPS()}, store)
		fs := fsys.New(k, c, core.RealMover{})
		store.Bind(fs)
		c.Start()
		errc := make(chan error, 1)
		k.Go("script", func(tk sched.Task) {
			err := func() error {
				if err := lay.Format(tk); err != nil {
					return err
				}
				if err := lay.Mount(tk); err != nil {
					return err
				}
				v, err := fs.AddVolume(tk, 1, lay, false)
				if err != nil {
					return err
				}
				if err := script(tk, v, false); err != nil {
					return err
				}
				realState, err = snapshot(tk, v)
				return err
			}()
			errc <- err
		})
		if err := <-errc; err != nil {
			t.Fatalf("on-line run: %v", err)
		}
		k.Stop()
	}

	// Simulated instantiation: virtual kernel, modeled HP 97560, no
	// data anywhere.
	var simState []entry
	{
		k := sched.NewVirtual(1)
		b := bus.New(k, bus.SCSI2("scsi0"))
		dd := disk.New(k, disk.HP97560("d0"), b)
		dd.Start()
		drv := device.NewSimDriver(k, "d0.drv", dd, b, nil)
		part := layout.NewPartition(drv, 0, 0, 4096, true)
		lay := lfs.New(k, "sim", part, lfs.Config{SegBlocks: 32})
		store := fsys.NewStore()
		c := cache.New(k, cache.Config{Blocks: 128, Flush: cache.UPS(), Simulated: true}, store)
		fs := fsys.New(k, c, core.DefaultSimMover())
		store.Bind(fs)
		c.Start()
		k.Go("script", func(tk sched.Task) {
			defer k.Stop()
			if err := lay.Format(tk); err != nil {
				t.Errorf("sim format: %v", err)
				return
			}
			if err := lay.Mount(tk); err != nil {
				t.Errorf("sim mount: %v", err)
				return
			}
			v, err := fs.AddVolume(tk, 1, lay, true)
			if err != nil {
				t.Errorf("sim volume: %v", err)
				return
			}
			if err := script(tk, v, true); err != nil {
				t.Errorf("sim script: %v", err)
				return
			}
			simState, err = snapshot(tk, v)
			if err != nil {
				t.Errorf("sim snapshot: %v", err)
			}
		})
		if err := k.Run(); err != nil {
			t.Fatalf("sim run: %v", err)
		}
	}

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
