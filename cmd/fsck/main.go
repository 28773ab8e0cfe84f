// Command fsck checks a PFS image — or a multi-volume array image
// set — for consistency, and optionally repairs it: each volume is
// mounted and every invariant of its layout verified (LFS: address
// ranges, double claims, segment usage counts, the free list; FFS:
// bitmap/table agreement, block claims, leaks). For arrays it also
// reads the geometry labels and cross-checks the width. With
// -rollforward an LFS volume is recovered through the newer
// checkpoint plus the post-checkpoint segment summaries; with
// -repair an FFS volume's bitmaps are rebuilt from its inode table.
//
//	fsck -image /var/tmp/pfs.img
//	fsck -image /var/tmp/pfs.img -volumes 4 -json
//	fsck -image /var/tmp/pfs.img -rollforward          # LFS recovery
//	fsck -image /var/tmp/pfs.img -layout ffs -repair   # FFS fsck -y
//	fsck -intents /var/tmp/intents.bin                 # NVRAM intent dump
//
// With -intents the image flags are ignored: the argument is a
// serialized NVRAM intent dump (the crash harness writes one next to
// its images) whose records are checksummed, sequence-checked, and
// printed one per line.
//
// For a redundant array (the label says mirrored or parity), one
// missing member image is not fatal: the member is declared dead, the
// geometry is read off the first surviving member, and the set is
// reported degraded (`"degraded"` / `"dead_member"` in -json). The
// check then mounts the whole array and walks the redundancy
// invariant — mirror copies agree, parity equals the XOR of its
// stripe — reporting the scrub counters under `"scrub"`; columns that
// need the dead member are skipped (they are exactly what a rebuild
// recomputes). Any mismatch marks the set dirty.
//
// Exit codes: 0 the image (set) is clean — including after a
// successful repair, and including a degraded-but-consistent
// redundant set — or the intent dump verifies; 1 inconsistencies
// remain or the dump is corrupt; 2 an image or dump could not be
// read at all.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/cache"
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
	intents     string
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
	fs.StringVar(&o.intents, "intents", "", "dump and verify a serialized NVRAM intent ring instead of checking an image")
	fs.BoolVar(&o.jsonOut, "json", false, "emit a machine-readable JSON summary")
	fs.BoolVar(&o.verbose, "v", false, "print volume summaries")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.intents != "" {
		return dumpIntents(o, stdout, stderr)
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
	k := sched.NewReal(0)
	fatal := false // could not even check an image (vs. checked and dirty)
	if o.volumes > 1 && (o.repair || o.rollforward) {
		// Recovering an array is an array-level operation: member
		// recovery alone leaves the cross-member invariants (lockstep
		// allocation, shadow sizes, labels) unrepaired.
		fatal = recoverArray(k, o, &rep)
	} else {
		paths := make([]string, o.volumes)
		for i := range paths {
			paths[i] = o.image
			if o.volumes > 1 {
				paths[i] = fmt.Sprintf("%s.v%d", o.image, i)
			}
		}
		// One missing member image is the single-fault the redundant
		// placements are built to survive (the disk died and took its
		// image with it): skip it here, check the survivors, and judge
		// it once the label has told us whether its share is still
		// represented. Two or more missing stay fatal as before.
		missing := -1
		if o.volumes > 1 {
			for i, p := range paths {
				if _, err := os.Stat(p); err == nil {
					continue
				}
				if missing >= 0 {
					missing = -2 // beyond the single-fault model
					break
				}
				missing = i
			}
		}
		vrs := make([]volReport, o.volumes)
		for i, path := range paths {
			if i == missing {
				vrs[i] = volReport{Image: path, Layout: o.layoutName, Errors: []string{}}
				continue
			}
			// The geometry label lives on every member, so the first
			// surviving one can supply it even when member 0 is gone.
			vr, f := checkVolume(k, path, o, o.volumes > 1 && rep.Label == nil, &rep)
			fatal = fatal || f
			vrs[i] = vr
		}
		redundant := rep.Label != nil &&
			(rep.Label.Placement == volume.PlacementMirrored || rep.Label.Placement == volume.PlacementParity)
		if missing >= 0 {
			if redundant {
				vrs[missing].Dead = true
				rep.Degraded = true
				m := missing
				rep.DeadMember = &m
			} else {
				vrs[missing].Errors = append(vrs[missing].Errors, fmt.Sprintf(
					"%s: member image missing and the placement is not redundant", paths[missing]))
				fatal = true
			}
		}
		if !fatal && redundant {
			fatal = crossCheck(k, o, paths, missing, &rep, vrs)
		}
		rep.Volumes = append(rep.Volumes, vrs...)
	}
	for _, vr := range rep.Volumes {
		if len(vr.Errors) > 0 {
			rep.Clean = false
		}
	}
	return emit(&rep, o, stdout, stderr, fatal)
}

// dumpIntents verifies and prints a serialized NVRAM intent dump —
// what the battery-backed domain held at a crash. Exit 0 when every
// record's checksum and sequence verify, 1 when the dump is corrupt,
// 2 when the file cannot be read.
func dumpIntents(o options, stdout, stderr io.Writer) int {
	buf, err := os.ReadFile(o.intents)
	if err != nil {
		fmt.Fprintln(stderr, "fsck:", err)
		return 2
	}
	ints, err := cache.DecodeIntents(buf)
	if err != nil {
		fmt.Fprintln(stdout, "fsck:", err)
		return 1
	}
	if o.jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(ints); err != nil {
			fmt.Fprintln(stderr, "fsck:", err)
			return 2
		}
	} else {
		for _, it := range ints {
			fmt.Fprintf(stdout, "#%d @%dns %s vol=%d file=%d", it.Seq, int64(it.At), it.Op, it.Vol, it.File)
			if it.Gen != 0 {
				fmt.Fprintf(stdout, " gen=%d", it.Gen)
			}
			if it.Parent != 0 {
				fmt.Fprintf(stdout, " parent=%d", it.Parent)
			}
			if it.Name != "" {
				fmt.Fprintf(stdout, " name=%q", it.Name)
			}
			if it.Op == cache.IntentRename {
				fmt.Fprintf(stdout, " parent2=%d name2=%q", it.Parent2, it.Name2)
			} else if it.Name2 != "" {
				fmt.Fprintf(stdout, " target=%q", it.Name2)
			}
			if it.Op == cache.IntentTruncate {
				fmt.Fprintf(stdout, " size=%d", it.Size)
			}
			fmt.Fprintln(stdout)
		}
		fmt.Fprintf(stdout, "%s: %d intents, all checksums verified\n", o.intents, len(ints))
	}
	return 0
}

// newLayout builds one member layout over a partition.
func newLayout(k *sched.RKernel, name, layoutName string, part *layout.Partition) layout.Layout {
	if layoutName == "ffs" {
		return ffs.New(k, name, part, ffs.Config{})
	}
	return lfs.New(k, name, part, lfs.Config{})
}

// recoverArray recovers a multi-volume image set through
// volume.Array.Recover: a probe of member 0 supplies the geometry,
// the array recovers every member plus the cross-member invariants,
// and each member is then checked. Returns whether the set could not
// be recovered at all.
func recoverArray(k *sched.RKernel, o options, rep *report) bool {
	paths := make([]string, o.volumes)
	drvs := make([]device.Driver, o.volumes)
	vrs := make([]volReport, o.volumes)
	for i := range paths {
		paths[i] = fmt.Sprintf("%s.v%d", o.image, i)
		vrs[i] = volReport{Image: paths[i], Layout: o.layoutName, Errors: []string{}}
	}
	defer func() { rep.Volumes = append(rep.Volumes, vrs...) }()
	fail := func(i int, f string, args ...any) bool {
		vrs[i].Errors = append(vrs[i].Errors, fmt.Sprintf(f, args...))
		return true
	}
	blocks := make([]int64, o.volumes)
	for i, path := range paths {
		fi, err := os.Stat(path)
		if err != nil {
			return fail(i, "%v", err)
		}
		blocks[i] = fi.Size() / core.BlockSize
		vrs[i].Blocks = blocks[i]
		if blocks[i] < 16 {
			return fail(i, "%s too small to hold a file system", path)
		}
		drv, err := device.NewFileDriver(k, "fsck:"+path, path, blocks[i], nil)
		if err != nil {
			return fail(i, "%v", err)
		}
		defer drv.Close()
		drvs[i] = drv
	}

	fatal := false
	done := make(chan struct{})
	k.Go("fsck.array", func(t sched.Task) {
		defer close(done)
		// Probe member 0: recover it alone and read the geometry
		// label the array must be rebuilt with.
		probe := newLayout(k, "fsck.probe", o.layoutName,
			layout.NewPartition(drvs[0], 0, 0, blocks[0], false))
		if _, err := probe.Recover(t); err != nil {
			fatal = fail(0, "recover: %v", err)
			return
		}
		li, found, err := volume.ReadLabel(t, probe)
		if err != nil {
			fatal = fail(0, "array label: %v", err)
			return
		}
		cfg := volume.Config{}
		if found {
			rep.Label = &labelInfo{Volumes: li.Volumes, Placement: li.Placement, StripeBlocks: li.StripeBlocks}
			if li.Volumes != o.volumes {
				fail(0, "array label says %d volumes, recovering %d", li.Volumes, o.volumes)
				return
			}
			cfg.Placement = li.Placement
			cfg.StripeBlocks = li.StripeBlocks
		} else {
			vrs[0].Repairs = append(vrs[0].Repairs,
				"no geometry label found; recovering with default (affinity) routing")
		}

		subs := make([]layout.Layout, o.volumes)
		for i := range subs {
			subs[i] = newLayout(k, fmt.Sprintf("fsck.d%d", i), o.layoutName,
				layout.NewPartition(drvs[i], i, 0, blocks[i], false))
		}
		arr, err := volume.New(k, "fsck", subs, cfg)
		if err != nil {
			fatal = fail(0, "%v", err)
			return
		}
		st, err := arr.Recover(t)
		vrs[0].Repairs = append(vrs[0].Repairs, st.Repairs...)
		if st.RolledSegments > 0 || st.DataBlocks > 0 || st.InodeRecords > 0 {
			vrs[0].Repairs = append(vrs[0].Repairs, fmt.Sprintf(
				"rolled forward %d segments: %d data blocks, %d inode records, %d orphans",
				st.RolledSegments, st.DataBlocks, st.InodeRecords, st.OrphanBlocks))
		}
		if err != nil {
			fatal = fail(0, "array recover: %v", err)
			return
		}
		for i, sub := range arr.Subs() {
			vrs[i].FreeBlocks = sub.FreeBlocks()
			for _, e := range checkFn(sub)(t) {
				vrs[i].Errors = append(vrs[i].Errors, e.Error())
			}
			if mi, ok, err := volume.ReadLabel(t, sub); err == nil && ok && mi.Origin >= 0 {
				org := mi.Origin
				vrs[i].Origin = &org
			}
		}
	})
	<-done
	return fatal
}

// crossCheck mounts the whole redundant array over the member images
// and walks the redundancy invariant: mirror copies agree, parity
// equals the XOR of its stripe. A dead member is stood in for by a
// blank placeholder that is never read — the array mounts around it —
// and the columns that need it are counted as skipped, not verified:
// they are exactly what a rebuild recomputes. Mismatches mark the set
// dirty (exit 1); returns whether the array could not be mounted at
// all.
func crossCheck(k *sched.RKernel, o options, paths []string, dead int, rep *report, vrs []volReport) bool {
	subs := make([]layout.Layout, o.volumes)
	var blocks int64
	for i, path := range paths {
		if i == dead {
			continue
		}
		fi, err := os.Stat(path)
		if err != nil {
			vrs[i].Errors = append(vrs[i].Errors, err.Error())
			return true
		}
		n := fi.Size() / core.BlockSize
		drv, err := device.NewFileDriver(k, "fsck.x:"+path, path, n, nil)
		if err != nil {
			vrs[i].Errors = append(vrs[i].Errors, err.Error())
			return true
		}
		defer drv.Close()
		subs[i] = newLayout(k, fmt.Sprintf("fsck.x%d", i), o.layoutName,
			layout.NewPartition(drv, i, 0, n, false))
		if blocks == 0 {
			blocks = n
		}
	}
	if dead >= 0 {
		drv := device.NewMemDriver(k, "fsck.dead", blocks, nil)
		subs[dead] = newLayout(k, fmt.Sprintf("fsck.x%d", dead), o.layoutName,
			layout.NewPartition(drv, dead, 0, blocks, false))
	}
	arr, err := volume.New(k, "fsck", subs,
		volume.Config{Placement: rep.Label.Placement, StripeBlocks: rep.Label.StripeBlocks})
	if err != nil {
		rep.ErrorText = fmt.Sprintf("redundancy cross-check: %v", err)
		return true
	}
	if dead >= 0 {
		if err := arr.KillMember(dead); err != nil {
			rep.ErrorText = fmt.Sprintf("redundancy cross-check: %v", err)
			return true
		}
	}
	fatal := false
	done := make(chan struct{})
	k.Go("fsck.crosscheck", func(t sched.Task) {
		defer close(done)
		if err := arr.Mount(t); err != nil {
			rep.ErrorText = fmt.Sprintf("redundancy cross-check: mount: %v", err)
			fatal = true
			return
		}
		st, err := arr.Scrub(t, false)
		if err != nil {
			rep.ErrorText = fmt.Sprintf("redundancy cross-check: %v", err)
			fatal = true
			return
		}
		rep.Scrub = &scrubInfo{
			Files:      st.Files,
			Blocks:     st.Blocks,
			Skipped:    st.Skipped,
			Mismatches: st.Mismatches,
		}
		if st.Mismatches > 0 {
			rep.Clean = false
			rep.ErrorText = fmt.Sprintf(
				"redundancy cross-check: %d mismatched columns (run fsck -rollforward, or rebuild the member)",
				st.Mismatches)
		}
	})
	<-done
	return fatal
}

// checkFn returns the layout's fsck pass.
func checkFn(lay layout.Layout) func(t sched.Task) []error {
	switch l := lay.(type) {
	case *lfs.LFS:
		return l.Check
	case *ffs.FFS:
		return l.Check
	default:
		return func(sched.Task) []error { return nil }
	}
}

// checkVolume mounts (or recovers) and checks one image; with
// wantLabel set (the first surviving member of an array) it also
// reads the geometry label into rep. The second result reports
// whether the image could not be checked at all.
func checkVolume(k *sched.RKernel, path string, o options, wantLabel bool, rep *report) (volReport, bool) {
	vr := volReport{Image: path, Layout: o.layoutName, Errors: []string{}}
	fatal := false
	fail := func(f string, args ...any) (volReport, bool) {
		vr.Errors = append(vr.Errors, fmt.Sprintf(f, args...))
		return vr, true
	}
	fi, err := os.Stat(path)
	if err != nil {
		return fail("%v", err)
	}
	blocks := fi.Size() / core.BlockSize
	vr.Blocks = blocks
	if blocks < 16 {
		return fail("%s too small to hold a file system", path)
	}
	drv, err := device.NewFileDriver(k, "fsck:"+path, path, blocks, nil)
	if err != nil {
		return fail("%v", err)
	}
	defer drv.Close()
	part := layout.NewPartition(drv, 0, 0, blocks, false)

	if o.layoutName != "lfs" && o.layoutName != "ffs" {
		return fail("unknown layout %q", o.layoutName)
	}
	lay := newLayout(k, "fsck", o.layoutName, part)
	check := checkFn(lay)

	done := make(chan struct{})
	k.Go("fsck", func(t sched.Task) {
		defer close(done)
		if o.repair || o.rollforward {
			st, err := lay.Recover(t)
			vr.Repairs = append(vr.Repairs, st.Repairs...)
			if st.RolledSegments > 0 || st.DataBlocks > 0 || st.InodeRecords > 0 {
				vr.Repairs = append(vr.Repairs, fmt.Sprintf(
					"rolled forward %d segments: %d data blocks, %d inode records, %d orphans",
					st.RolledSegments, st.DataBlocks, st.InodeRecords, st.OrphanBlocks))
			}
			if err != nil {
				vr.Errors = append(vr.Errors, fmt.Sprintf("recover: %v", err))
				fatal = true
				return
			}
		} else if err := lay.Mount(t); err != nil {
			vr.Errors = append(vr.Errors, fmt.Sprintf("mount: %v", err))
			fatal = true
			return
		}
		vr.FreeBlocks = lay.FreeBlocks()
		for _, e := range check(t) {
			vr.Errors = append(vr.Errors, e.Error())
		}
		if o.volumes > 1 {
			li, found, err := volume.ReadLabel(t, lay)
			if err != nil {
				vr.Errors = append(vr.Errors, fmt.Sprintf("array label: %v", err))
			} else if found {
				// Lineage: a promoted member's label names the spare
				// slot it was rebuilt onto.
				if li.Origin >= 0 {
					org := li.Origin
					vr.Origin = &org
				}
				if wantLabel {
					rep.Label = &labelInfo{Volumes: li.Volumes, Placement: li.Placement, StripeBlocks: li.StripeBlocks}
				}
			}
		}
	})
	<-done
	return vr, fatal
}

// emit prints the report and returns the exit code: 0 clean, 1
// inconsistencies found, 2 an image could not be checked at all.
func emit(rep *report, o options, stdout, stderr io.Writer, fatal bool) int {
	if rep.Label != nil && rep.Label.Volumes != len(rep.Volumes) {
		rep.Clean = false
		rep.ErrorText = fmt.Sprintf("array label says %d volumes, checked %d",
			rep.Label.Volumes, len(rep.Volumes))
	}
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
