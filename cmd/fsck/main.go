// Command fsck checks a PFS image — or a multi-volume array image
// set — for consistency, and optionally repairs it. It opens every set
// the way the server does: one file driver per member image under one
// volume array (a single image is an array of one), mounted — or,
// with -rollforward or -repair, recovered — as a whole. Each member
// then runs its layout's check (LFS: address ranges, double claims,
// segment usage counts, the free list; FFS: bitmap/table agreement,
// block claims, leaks). With -rollforward an LFS set is recovered
// through the newer checkpoint plus the post-checkpoint segment
// summaries; with -repair an FFS set's bitmaps are rebuilt from its
// inode tables.
//
//	fsck -image /var/tmp/pfs.img
//	fsck -image /var/tmp/pfs.img -volumes 4 -json
//	fsck -image /var/tmp/pfs.img -rollforward          # LFS recovery
//	fsck -image /var/tmp/pfs.img -layout ffs -repair   # FFS fsck -y
//
// For a set wider than one, the first surviving member's geometry
// label names the placement and chunk width, and the array validates
// every member's label as the server's mount does: a width mismatch,
// a shuffled member order or a member from another set is an
// inconsistency. For a redundant array (the label says mirrored or
// parity), one missing member image is not fatal: the member is
// declared dead and the set is reported degraded (`"degraded"` /
// `"dead_member"` in -json), and it can be rolled forward degraded.
// A redundant set — checked or just recovered — then walks the
// redundancy invariant: mirror copies agree, parity equals the XOR of
// its stripe. The scrub counters are reported under `"scrub"`; columns
// that need the dead member are skipped (they are exactly what a
// rebuild recomputes). Any mismatch marks the set dirty.
//
// Exit codes: 0 the image (set) is clean — including after a
// successful repair, and including a degraded-but-consistent
// redundant set; 1 inconsistencies remain; 2 an image could not be
// read or mounted at all.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/ffs"
	"repro/internal/layout"
	"repro/internal/lfs"
	"repro/internal/sched"
	"repro/internal/volume"
)

// volReport is one volume image's result.
type volReport struct {
	Image      string   `json:"image"`
	Blocks     int64    `json:"blocks"`
	FreeBlocks int64    `json:"free_blocks"`
	Layout     string   `json:"layout"`
	Dead       bool     `json:"dead,omitempty"`
	Origin     *int     `json:"origin,omitempty"`
	Repairs    []string `json:"repairs,omitempty"`
	Errors     []string `json:"errors"`
}

// report is the machine-readable summary.
type report struct {
	Image      string      `json:"image"`
	Volumes    []volReport `json:"volumes"`
	Label      *labelInfo  `json:"label,omitempty"`
	Degraded   bool        `json:"degraded,omitempty"`
	DeadMember *int        `json:"dead_member,omitempty"`
	Scrub      *scrubInfo  `json:"scrub,omitempty"`
	Spares     *spareInfo  `json:"spares,omitempty"`
	Health     *healthInfo `json:"health,omitempty"`
	Clean      bool        `json:"clean"`
	ErrorText  string      `json:"error,omitempty"`
}

// spareInfo reports the hot-spare images found next to the member set
// ("<image>.s<j>") — idle replacements a self-healing server promotes.
type spareInfo struct {
	Count  int      `json:"count"`
	Images []string `json:"images"`
}

// healthInfo is the set's self-heal provenance: members whose
// geometry label records spare lineage were rebuilt onto a hot spare
// by a supervised repair.
type healthInfo struct {
	Promoted []promotion `json:"promoted,omitempty"`
}

// promotion records that a member was rebuilt onto spare slot Spare.
type promotion struct {
	Member int `json:"member"`
	Spare  int `json:"spare"`
}

// scrubInfo is the redundancy cross-check result: every file's data
// columns walked, mirror copies compared, parity XOR verified.
// Skipped counts columns that need the dead member and so cannot be
// verified until a rebuild.
type scrubInfo struct {
	Files      int64 `json:"files"`
	Blocks     int64 `json:"blocks"`
	Skipped    int64 `json:"skipped"`
	Mismatches int64 `json:"mismatches"`
}

// labelInfo is the array geometry read off member 0.
type labelInfo struct {
	Volumes      int    `json:"volumes"`
	Placement    string `json:"placement"`
	StripeBlocks int    `json:"stripe_blocks"`
}

// options is the parsed command line.
type options struct {
	image       string
	volumes     int
	layoutName  string
	repair      bool
	rollforward bool
	jsonOut     bool
	verbose     bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injectable streams and an exit code — the golden
// test drives the full table through it.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fsck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.image, "image", "pfs.img", "backing image file (base name with -volumes > 1)")
	fs.IntVar(&o.volumes, "volumes", 1, "array width: check images <image>.v0 .. <image>.v(N-1)")
	fs.StringVar(&o.layoutName, "layout", "lfs", "storage layout of the image(s): lfs or ffs")
	fs.BoolVar(&o.repair, "repair", false, "ffs: rebuild the allocation bitmaps from the inode table, then re-check")
	fs.BoolVar(&o.rollforward, "rollforward", false, "lfs: recover through the newer checkpoint and the post-checkpoint segments, then re-check")
	fs.BoolVar(&o.jsonOut, "json", false, "emit a machine-readable JSON summary")
	fs.BoolVar(&o.verbose, "v", false, "print volume summaries")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.layoutName != "lfs" && o.layoutName != "ffs" {
		fmt.Fprintf(stderr, "fsck: unknown layout %q\n", o.layoutName)
		return 2
	}
	if o.volumes < 1 {
		fmt.Fprintln(stderr, "fsck: -volumes must be at least 1")
		return 2
	}
	if o.repair && o.layoutName != "ffs" {
		fmt.Fprintln(stderr, "fsck: -repair applies to -layout ffs (use -rollforward for lfs)")
		return 2
	}
	if o.rollforward && o.layoutName != "lfs" {
		fmt.Fprintln(stderr, "fsck: -rollforward applies to -layout lfs (use -repair for ffs)")
		return 2
	}

	rep := report{Image: o.image, Clean: true}
	fatal := checkSet(o, &rep) // could not even check the set (vs. checked and dirty)
	for _, vr := range rep.Volumes {
		if len(vr.Errors) > 0 {
			rep.Clean = false
		}
	}
	return emit(&rep, o, stdout, stderr, fatal)
}

// newLayout builds one member layout over a partition.
func newLayout(k *sched.RKernel, name, layoutName string, part *layout.Partition) layout.Layout {
	if layoutName == "ffs" {
		return ffs.New(k, name, part, ffs.Config{})
	}
	return lfs.New(k, name, part, lfs.Config{})
}

// fail records an inconsistency of the set as a whole.
func (rep *report) fail(msg string) {
	rep.Clean = false
	if rep.ErrorText != "" {
		msg = rep.ErrorText + "; " + msg
	}
	rep.ErrorText = msg
}

// failMember records an error against member i and returns true, the
// "could not be checked" verdict of the callers that stop on it.
func (rep *report) failMember(i int, f string, args ...any) bool {
	rep.Volumes[i].Errors = append(rep.Volumes[i].Errors, fmt.Sprintf(f, args...))
	return true
}

// checkSet opens the image set the way the server does — one file
// driver per member image under one volume.Array, width 1 included —
// mounts or recovers it, and checks it. Returns whether the set could
// not be checked at all.
func checkSet(o options, rep *report) bool {
	k := sched.NewReal(0)
	n := o.volumes
	vrs := make([]volReport, n)
	rep.Volumes = vrs
	for i := range vrs {
		vrs[i] = volReport{Image: o.image, Layout: o.layoutName, Errors: []string{}}
		if n > 1 {
			vrs[i].Image = fmt.Sprintf("%s.v%d", o.image, i)
		}
	}
	parts := make([]*layout.Partition, n)
	var gone []int
	for i := range vrs {
		path := vrs[i].Image
		fi, err := os.Stat(path)
		if err != nil {
			gone = append(gone, i)
			rep.failMember(i, "%v", err)
			continue
		}
		vrs[i].Blocks = fi.Size() / core.BlockSize
		if vrs[i].Blocks < 16 {
			return rep.failMember(i, "%s too small to hold a file system", path)
		}
		drv, err := device.NewFileDriver(k, "fsck:"+path, path, vrs[i].Blocks, nil)
		if err != nil {
			return rep.failMember(i, "%v", err)
		}
		defer drv.Close()
		parts[i] = layout.NewPartition(drv, i, 0, vrs[i].Blocks, false)
	}
	missing := -1
	switch {
	case len(gone) == 1 && n > 1:
		// One missing member image is the single fault the redundant
		// placements are built to survive (the disk died and took its
		// image with it); KillMember judges it once the label has
		// named the placement.
		missing = gone[0]
		vrs[missing].Errors = vrs[missing].Errors[:0]
	case len(gone) > 0:
		return true
	}
	first := 0 // the first surviving member
	if missing == 0 {
		first = 1
	}
	if missing >= 0 {
		// A blank stand-in the array never reads: it mounts around it.
		drv := device.NewMemDriver(k, "fsck.dead", vrs[first].Blocks, nil)
		defer drv.Close()
		parts[missing] = layout.NewPartition(drv, missing, 0, vrs[first].Blocks, false)
	}

	fatal := false
	done := make(chan struct{})
	k.Go("fsck", func(t sched.Task) {
		defer close(done)
		fatal = checkArray(t, k, o, rep, parts, missing, first)
	})
	<-done
	return fatal
}

// checkArray is checkSet's work inside a kernel task. For width > 1
// the first surviving member, mounted (or recovered) alone, supplies
// the geometry label the array is built with; the array then mounts
// (or recovers) every member and validates their labels, each member
// runs its own check, and a redundant array walks its redundancy
// invariant with a read-only scrub. A label that does not describe the
// set (volume.ErrGeometry) is an inconsistency, not a fatal error.
func checkArray(t sched.Task, k *sched.RKernel, o options, rep *report, parts []*layout.Partition, missing, first int) bool {
	vrs := rep.Volumes
	verb := "mount"
	if o.repair || o.rollforward {
		verb = "recover"
	}
	bringUp := func(lay layout.Layout) (layout.RecoveryStats, error) {
		if verb == "recover" {
			return lay.Recover(t)
		}
		return layout.RecoveryStats{}, lay.Mount(t)
	}

	var cfg volume.Config
	if len(parts) > 1 {
		probe := newLayout(k, "fsck.probe", o.layoutName, parts[first])
		if _, err := bringUp(probe); err != nil {
			return rep.failMember(first, "%s: %v", verb, err)
		}
		li, found, err := volume.ReadLabel(t, probe)
		if err != nil {
			return rep.failMember(first, "array label: %v", err)
		}
		if found {
			rep.Label = &labelInfo{Volumes: li.Volumes, Placement: li.Placement, StripeBlocks: li.StripeBlocks}
			cfg = volume.Config{Placement: li.Placement, StripeBlocks: li.StripeBlocks}
			if li.Volumes != len(parts) {
				rep.fail(fmt.Sprintf("array label says %d volumes, checked %d", li.Volumes, len(parts)))
			}
		}
	}
	subs := make([]layout.Layout, len(parts))
	for i, part := range parts {
		subs[i] = newLayout(k, fmt.Sprintf("fsck.d%d", i), o.layoutName, part)
	}
	arr, err := volume.New(k, "fsck", subs, cfg)
	if err != nil {
		// The label's geometry does not fit the set being checked.
		rep.fail(err.Error())
		return false
	}
	if missing >= 0 {
		if arr.KillMember(missing) != nil {
			return rep.failMember(missing, "%s: member image missing and the placement is not redundant", vrs[missing].Image)
		}
		vrs[missing].Dead = true
		rep.Degraded = true
		rep.DeadMember = &missing
	}
	st, err := bringUp(arr)
	vrs[first].Repairs = append(vrs[first].Repairs, st.Repairs...)
	if st.RolledSegments > 0 || st.DataBlocks > 0 || st.InodeRecords > 0 {
		vrs[first].Repairs = append(vrs[first].Repairs, fmt.Sprintf(
			"rolled forward %d segments: %d data blocks, %d inode records, %d orphans",
			st.RolledSegments, st.DataBlocks, st.InodeRecords, st.OrphanBlocks))
	}
	geometry := errors.Is(err, volume.ErrGeometry)
	if err != nil && !geometry {
		return rep.failMember(first, "%s: %v", verb, err)
	}
	if geometry {
		// Every member is up; only the labels disagree with the set.
		rep.fail(err.Error())
	}
	origins := arr.Origins()
	for i, sub := range arr.Subs() {
		if i == missing {
			continue
		}
		vrs[i].FreeBlocks = sub.FreeBlocks()
		for _, e := range sub.Check(t) {
			vrs[i].Errors = append(vrs[i].Errors, e.Error())
		}
		if origins[i] >= 0 {
			// Lineage: a promoted member's label names the spare slot
			// it was rebuilt onto.
			org := origins[i]
			vrs[i].Origin = &org
		}
	}
	if geometry || (arr.Placement() != volume.PlacementMirrored && arr.Placement() != volume.PlacementParity) {
		return false
	}
	// Mirror copies agree and parity equals the XOR of its stripe;
	// columns that need the dead member are skipped, not verified.
	sst, err := arr.Scrub(t, false)
	if err != nil {
		rep.fail(fmt.Sprintf("redundancy cross-check: %v", err))
		return true
	}
	rep.Scrub = &scrubInfo{Files: sst.Files, Blocks: sst.Blocks, Skipped: sst.Skipped, Mismatches: sst.Mismatches}
	if sst.Mismatches > 0 {
		rep.fail(fmt.Sprintf(
			"redundancy cross-check: %d mismatched columns (run fsck -rollforward, or rebuild the member)",
			sst.Mismatches))
	}
	return false
}

// emit prints the report and returns the exit code: 0 clean, 1
// inconsistencies found, 2 an image could not be checked at all.
func emit(rep *report, o options, stdout, stderr io.Writer, fatal bool) int {
	// Spare pool and self-heal provenance: informative, never dirty.
	if o.volumes > 1 {
		if sp, _ := filepath.Glob(o.image + ".s*"); len(sp) > 0 {
			sort.Strings(sp)
			rep.Spares = &spareInfo{Count: len(sp), Images: sp}
		}
		var promos []promotion
		for i, vr := range rep.Volumes {
			if vr.Origin != nil {
				promos = append(promos, promotion{Member: i, Spare: *vr.Origin})
			}
		}
		if len(promos) > 0 {
			rep.Health = &healthInfo{Promoted: promos}
		}
	}
	if o.jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(stderr, "fsck:", err)
			return 2
		}
	} else {
		for _, v := range rep.Volumes {
			if v.Dead {
				fmt.Fprintf(stdout, "%s: missing — member dead, share served from redundancy\n", v.Image)
				continue
			}
			if o.verbose {
				fmt.Fprintf(stdout, "%s: %d blocks, %d free\n", v.Image, v.Blocks, v.FreeBlocks)
			}
			for _, r := range v.Repairs {
				fmt.Fprintf(stdout, "%s: repaired: %s\n", v.Image, r)
			}
			for _, e := range v.Errors {
				fmt.Fprintln(stdout, e)
			}
			if len(v.Errors) > 0 {
				fmt.Fprintf(stdout, "%s: %d inconsistencies\n", v.Image, len(v.Errors))
			} else if fatal {
				fmt.Fprintf(stdout, "%s: not checked\n", v.Image)
			} else {
				fmt.Fprintf(stdout, "%s: clean\n", v.Image)
			}
		}
		if rep.Label != nil {
			fmt.Fprintf(stdout, "array label: %d volumes, %s placement, stripe %d blocks\n",
				rep.Label.Volumes, rep.Label.Placement, rep.Label.StripeBlocks)
		}
		if rep.Degraded && rep.DeadMember != nil {
			fmt.Fprintf(stdout, "array degraded: member %d dead\n", *rep.DeadMember)
		}
		if rep.Scrub != nil {
			fmt.Fprintf(stdout, "redundancy cross-check: %d files, %d blocks, %d skipped (dead member), %d mismatches\n",
				rep.Scrub.Files, rep.Scrub.Blocks, rep.Scrub.Skipped, rep.Scrub.Mismatches)
		}
		if rep.Spares != nil {
			fmt.Fprintf(stdout, "spare pool: %d idle image(s)\n", rep.Spares.Count)
		}
		if rep.Health != nil {
			for _, p := range rep.Health.Promoted {
				fmt.Fprintf(stdout, "member %d: promoted from spare slot %d (self-heal rebuild)\n", p.Member, p.Spare)
			}
		}
		if rep.ErrorText != "" {
			fmt.Fprintln(stdout, "fsck:", rep.ErrorText)
		}
	}
	if fatal {
		return 2
	}
	if !rep.Clean {
		return 1
	}
	return 0
}
