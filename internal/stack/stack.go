// Package stack is the one assembly of the component library: the
// member layouts, the arrays over them, and the cache and file-system
// front-end on top. The on-line server (pfs), the simulator (Patsy)
// and the offline checker (cmd/fsck) all build their stacks here, so
// they differ only in what stays with the caller: the kernel, the
// drivers (file, SimDriver or MemDriver) and the Simulated flag.
//
// One flag decides everything that differs between a payload-moving
// stack and a simulated one: the partitions, the arrays, the cache,
// the front-end's data mover and whether a flush ends durable.
package stack

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/ffs"
	"repro/internal/fsys"
	"repro/internal/layout"
	"repro/internal/lfs"
	"repro/internal/sched"
	"repro/internal/volume"
)

// Config is every assembly decision the kernel and the drivers do not
// make.
type Config struct {
	// Simulated builds a stack that moves no payload: simulated
	// partitions and arrays, a simulated cache and the simulator's
	// data mover.
	Simulated bool
	// Layout is the member layout: "lfs" (the default) or "ffs".
	Layout string
	// SegBlocks and Cleaner configure LFS members (zero values take
	// lfs.New's defaults, which are lfs.DefaultConfig's).
	SegBlocks int
	Cleaner   string
	// ClusterRun caps every member's clustered transfers; 1 or less
	// leaves the members at one block per request.
	ClusterRun int
	// Placement and StripeBlocks lay file data across an array (see
	// volume.Config).
	Placement    string
	StripeBlocks int
}

// Partition is blocks blocks of drv from start, at disk address disk.
func (c Config) Partition(drv device.Driver, disk int, start, blocks int64) *layout.Partition {
	return layout.NewPartition(drv, disk, start, blocks, c.Simulated)
}

// Member builds one member layout named name over part.
func (c Config) Member(k sched.Kernel, name string, part *layout.Partition) (layout.Layout, error) {
	var lay layout.Layout
	switch c.Layout {
	case "", "lfs":
		lay = lfs.New(k, name, part, lfs.Config{SegBlocks: c.SegBlocks, Cleaner: c.Cleaner})
	case "ffs":
		lay = ffs.New(k, name, part, ffs.DefaultConfig())
	default:
		return nil, fmt.Errorf("stack: unknown layout %q", c.Layout)
	}
	if c.ClusterRun > 1 {
		lay.SetClusterRun(c.ClusterRun)
	}
	return lay, nil
}

// MemberName names member i of the width-w array vol: a lone member
// carries the volume's name, a wider array's members "<vol>.d<i>".
func MemberName(vol string, w, i int) string {
	if w == 1 {
		return vol
	}
	return fmt.Sprintf("%s.d%d", vol, i)
}

// Array builds the array name with one member per partition, in
// partition order. The array is neither formatted nor mounted.
func (c Config) Array(k sched.Kernel, name string, parts []*layout.Partition) (*volume.Array, error) {
	subs := make([]layout.Layout, len(parts))
	for i, part := range parts {
		sub, err := c.Member(k, MemberName(name, len(parts), i), part)
		if err != nil {
			return nil, err
		}
		subs[i] = sub
	}
	return volume.New(k, name, subs, volume.Config{
		Placement:    c.Placement,
		StripeBlocks: c.StripeBlocks,
		Simulated:    c.Simulated,
	})
}

// IntentSlots sizes the cache's namespace intent ring: 1024 slots
// with the log on, none with it off.
func IntentSlots(on bool) int {
	if on {
		return 1024
	}
	return 0
}

// FrontEnd wires a block cache and the file-system front-end over one
// store and starts the cache's flushers. cc's Simulated field is
// overridden by the stack's flag. A payload-moving stack's flushes
// are durable on completion: a block the cache frees from its
// (battery-backed) dirty set is on the medium, not in a layout's
// volatile buffer.
func (c Config) FrontEnd(k sched.Kernel, cc cache.Config) (*fsys.FS, *cache.Cache) {
	store := fsys.NewStore()
	store.SetDurable(!c.Simulated)
	cc.Simulated = c.Simulated
	ca := cache.New(k, cc, store)
	var mover core.DataMover = core.RealMover{}
	if c.Simulated {
		mover = core.DefaultSimMover()
	}
	fs := fsys.New(k, ca, mover)
	store.Bind(fs)
	ca.Start()
	return fs, ca
}
