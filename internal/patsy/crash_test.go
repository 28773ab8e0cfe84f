package patsy

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fsys"
	"repro/internal/sched"
	"repro/internal/trace"
)

// A simulated recovery is durable: after CrashRecover under UPS with
// the intent log, on a two-wide array of either layout and on four
// one-member volumes over two disks, the recovery drops nothing, the
// front-end it ran on holds no dirty block and no unretired intent,
// and a second remount of the same arrays on another fresh front-end
// lists the same namespace on every volume.
func TestCrashRecoveryIsDurable(t *testing.T) {
	for _, c := range []struct {
		name, layout    string
		volumes, arrays int
	}{{"lfs", "lfs", 1, 2}, {"ffs", "ffs", 1, 2}, {"classic", "lfs", 4, 0}} {
		t.Run(c.name, func(t *testing.T) {
			p := trace.Profiles()["1a"]
			p.Volumes, p.HotVolumes, p.Clients, p.LargeWriters, p.PreexistingFiles = c.volumes, 1, 8, 4, 40
			recs := trace.Generate(p, 3, 2*time.Minute)
			cfg := DefaultConfig(3, cache.UPS())
			cfg.Buses, cfg.DisksPerBus, cfg.Volumes = 1, []int{2}, c.volumes
			cfg.CacheBlocks = 1024
			cfg.Layout = c.layout
			cfg.ArrayVolumes = c.arrays
			cfg.Placement = "striped"
			cfg.Fault = &device.FaultConfig{Seed: 3}
			cfg.CrashAt = 80 * time.Second
			cfg.CrashRecover = true
			cfg.IntentLog = true
			sys, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rep := trace.NewReplayer(sys.FS, recs)
			var runErr error
			sys.K.Go("test.main", func(tk sched.Task) {
				if runErr = sys.Init(tk); runErr != nil {
					sys.K.Stop()
					return
				}
				sys.K.Go("test.crash", func(ct sched.Task) {
					runErr = checkRecovery(ct, sys, rep)
					sys.K.Stop()
				})
				rep.Run(tk)
			})
			if err := sys.K.Run(); err != nil {
				t.Fatal(err)
			}
			if runErr != nil {
				t.Fatal(runErr)
			}
		})
	}
}

// checkRecovery cuts the power, recovers, and checks what the
// recovery left: nothing dirty, nothing unretired, and a namespace a
// second fresh front-end over the same arrays lists the same way.
func checkRecovery(t sched.Task, sys *System, rep *trace.Replayer) error {
	info, fs, err := sys.crashTask(t, rep)
	if err != nil {
		return err
	}
	ns := info.Namespace
	if !info.Recovered || info.SurvivorBlocks == 0 || ns.SurvivorIntents == 0 {
		return fmt.Errorf("recovery exercised nothing: %+v, %+v", info, ns)
	}
	if info.DroppedBlocks != 0 || ns.Dropped != 0 {
		return fmt.Errorf("recovery dropped %d blocks and %d intents", info.DroppedBlocks, ns.Dropped)
	}
	if n := fs.Cache().DirtyCount(); n != 0 {
		return fmt.Errorf("%d dirty blocks left after recovery", n)
	}
	if n := fs.Cache().Intents().Len(); n != 0 {
		return fmt.Errorf("%d unretired intents left after recovery", n)
	}
	again, _ := sys.frontEnd()
	for i, a := range sys.Volumes {
		if err := a.Mount(t); err != nil {
			return err
		}
		if _, err := again.AddVolume(t, core.VolumeID(i+1), a); err != nil {
			return err
		}
	}
	want, err := namespace(t, fs)
	if err != nil {
		return err
	}
	got, err := namespace(t, again)
	if err != nil {
		return err
	}
	if !slices.Equal(got, want) {
		return fmt.Errorf("remount lists %d entries, the recovery %d:\n got %v\nwant %v", len(got), len(want), got, want)
	}
	return nil
}

// namespace lists every path on every volume of fs with its inode,
// type and size, depth first in name order.
func namespace(t sched.Task, fs *fsys.FS) ([]string, error) {
	var out []string
	var walk func(v *fsys.Volume, dir core.FileID, prefix string) error
	walk = func(v *fsys.Volume, dir core.FileID, prefix string) error {
		ents, err := v.ReaddirByID(t, dir)
		if err != nil {
			return err
		}
		for _, e := range ents {
			a, err := v.StatByID(t, e.ID)
			if err != nil {
				return err
			}
			out = append(out, fmt.Sprintf("%s/%s #%d %v %d", prefix, e.Name, a.ID, a.Type, a.Size))
			if a.Type == core.TypeDirectory {
				if err := walk(v, e.ID, prefix+"/"+e.Name); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for id := core.VolumeID(1); fs.Vol(id) != nil; id++ {
		v := fs.Vol(id)
		if err := walk(v, v.Root(), fmt.Sprintf("vol%d:", id)); err != nil {
			return nil, err
		}
	}
	return out, nil
}
