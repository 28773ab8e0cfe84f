package trace

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fsys"
	"repro/internal/layout"
	"repro/internal/lfs"
	"repro/internal/sched"
	"repro/internal/volume"
)

func sampleRecords() []Record {
	return []Record{
		{T: 0, Client: 1, Vol: 2, Op: OpOpen, Path: "/a/b", Size: 8192, Flags: FlagPreexisting},
		{Client: 1, Vol: 2, Op: OpRead, Path: "/a/b", Off: 0, Len: 4096},
		{Client: 1, Vol: 2, Op: OpRead, Path: "/a/b", Off: 4096, Len: 4096},
		{T: 40 * time.Millisecond, Client: 1, Vol: 2, Op: OpClose, Path: "/a/b"},
		{T: 50 * time.Millisecond, Client: 2, Vol: 1, Op: OpRename, Path: "/x", Path2: "/y"},
		{T: 60 * time.Millisecond, Client: 2, Vol: 1, Op: OpStat, Path: "/y"},
	}
}

func TestSpriteRoundTrip(t *testing.T) {
	recs := sampleRecords()
	var buf bytes.Buffer
	f := SpriteFormat{}
	if err := f.Write(&buf, recs); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := f.Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("count %d, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d: %+v != %+v", i, got[i], recs[i])
		}
	}
}

func TestCodaRoundTrip(t *testing.T) {
	recs := sampleRecords()
	var buf bytes.Buffer
	f := CodaFormat{}
	if err := f.Write(&buf, recs); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := f.Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("count %d, want %d", len(got), len(recs))
	}
	for i := range recs {
		// Text codec keeps microsecond resolution.
		want := recs[i]
		want.T = want.T.Truncate(time.Microsecond)
		if got[i] != want {
			t.Fatalf("record %d: %+v != %+v", i, got[i], want)
		}
	}
}

func TestCodaSkipsComments(t *testing.T) {
	in := "# comment\n\n0 1 1 stat /f 0 0 0 0\n"
	got, err := (CodaFormat{}).Read(bytes.NewBufferString(in))
	if err != nil || len(got) != 1 || got[0].Op != OpStat {
		t.Fatalf("got %v err %v", got, err)
	}
}

func TestSpriteRoundTripProperty(t *testing.T) {
	f := SpriteFormat{}
	prop := func(ts []uint32, ops []uint8) bool {
		var recs []Record
		for i := range ts {
			op := OpStat
			if len(ops) > 0 {
				op = Op(1 + ops[i%len(ops)]%11)
			}
			recs = append(recs, Record{
				T:      time.Duration(ts[i]),
				Client: uint16(i),
				Vol:    core.VolumeID(i % 14),
				Op:     op,
				Path:   "/p",
				Off:    int64(ts[i]) * 3,
				Len:    int64(ts[i]) % 65536,
			})
		}
		var buf bytes.Buffer
		if err := f.Write(&buf, recs); err != nil {
			return false
		}
		got, err := f.Read(&buf)
		if err != nil || len(got) != len(recs) {
			return false
		}
		for i := range recs {
			if got[i] != recs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestNewFormatNames(t *testing.T) {
	for _, n := range []string{"", "sprite", "coda"} {
		if _, ok := NewFormat(n); !ok {
			t.Fatalf("NewFormat(%q) failed", n)
		}
	}
	if _, ok := NewFormat("bogus"); ok {
		t.Fatal("bogus format accepted")
	}
}

// TestZipfExponentSkew checks the configurable Zipf popularity: a
// steeper exponent concentrates operations on fewer distinct paths,
// and the knob stays deterministic in the seed.
func TestZipfExponentSkew(t *testing.T) {
	distinct := func(s float64) int {
		p := Profiles()["1a"]
		p.ZipfS = s
		recs := Generate(p, 42, 5*time.Minute)
		if len(recs) == 0 {
			t.Fatal("empty trace")
		}
		paths := map[string]bool{}
		for _, r := range recs {
			if r.Op == OpOpen || r.Op == OpStat {
				paths[r.Path] = true
			}
		}
		return len(paths)
	}
	flat, steep := distinct(1.05), distinct(3.5)
	if steep >= flat {
		t.Fatalf("zipf 3.5 touches %d distinct files, zipf 1.05 %d: steeper should concentrate", steep, flat)
	}
	// Deterministic: same seed, same stream.
	p := Profiles()["1a"]
	p.ZipfS = 2.0
	a := Generate(p, 7, 2*time.Minute)
	b := Generate(p, 7, 2*time.Minute)
	if len(a) != len(b) {
		t.Fatalf("zipf trace not deterministic: %d vs %d records", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("zipf trace record %d differs", i)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := Profiles()["1a"]
	a := Generate(p, 42, 5*time.Minute)
	b := Generate(p, 42, 5*time.Minute)
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs", i)
		}
	}
	c := Generate(p, 43, 5*time.Minute)
	if len(c) == len(a) {
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical traces")
		}
	}
}

func TestProfilesCoverAllSeven(t *testing.T) {
	ps := Profiles()
	for _, name := range ProfileNames() {
		p, ok := ps[name]
		if !ok {
			t.Fatalf("missing profile %s", name)
		}
		if p.Name != name {
			t.Fatalf("profile %s misnamed %q", name, p.Name)
		}
		recs := Generate(p, 7, 2*time.Minute)
		if len(recs) == 0 {
			t.Fatalf("profile %s generated nothing", name)
		}
		sum := Summary(recs)
		if sum[OpOpen]+sum[OpCreate] == 0 || sum[OpClose] == 0 {
			t.Fatalf("profile %s has no sessions: %v", name, sum)
		}
	}
}

func TestTrace1bHasLargeWrites(t *testing.T) {
	recs := Generate(Profiles()["1b"], 11, 5*time.Minute)
	var bigWrites int
	for _, r := range recs {
		if r.Op == OpWrite && r.Len >= 8*core.BlockSize {
			bigWrites++
		}
	}
	if bigWrites < 50 {
		t.Fatalf("trace 1b large writes = %d, want many", bigWrites)
	}
}

func TestTrace5HasStats(t *testing.T) {
	recs := Generate(Profiles()["5"], 11, 5*time.Minute)
	sum := Summary(recs)
	if sum[OpStat] == 0 {
		t.Fatal("trace 5 has no stat traffic")
	}
	if sum[OpWrite] == 0 {
		t.Fatal("trace 5 has no writes")
	}
}

func TestOverwriteFactorProducesDeletes(t *testing.T) {
	recs := Generate(Profiles()["3"], 13, 10*time.Minute)
	sum := Summary(recs)
	if sum[OpDelete] == 0 {
		t.Fatal("compile trace produced no deletes")
	}
	frac := float64(sum[OpDelete]+sum[OpTruncate]) / float64(sum[OpCreate]+sum[OpOpen])
	if frac < 0.1 {
		t.Fatalf("overwrite factor too low: %.2f", frac)
	}
}

func TestSynthesizeTimesEquidistant(t *testing.T) {
	recs := []Record{
		{T: 100 * time.Millisecond, Op: OpOpen, Path: "/f"},
		{Op: OpRead, Path: "/f"},
		{Op: OpRead, Path: "/f"},
		{Op: OpRead, Path: "/f"},
		{T: 500 * time.Millisecond, Op: OpClose, Path: "/f"},
	}
	out := synthesizeTimes(recs)
	want := []time.Duration{200, 300, 400}
	for i, w := range want {
		if out[i+1].T != w*time.Millisecond {
			t.Fatalf("read %d at %v, want %vms", i, out[i+1].T, w)
		}
	}
}

func TestSynthesizeLeavesRecordedTimes(t *testing.T) {
	recs := []Record{
		{T: 100 * time.Millisecond, Op: OpOpen, Path: "/f"},
		{T: 150 * time.Millisecond, Op: OpRead, Path: "/f"},
		{T: 500 * time.Millisecond, Op: OpClose, Path: "/f"},
	}
	out := synthesizeTimes(recs)
	if out[1].T != 150*time.Millisecond {
		t.Fatalf("recorded time overwritten: %v", out[1].T)
	}
}

// replayRig builds a minimal simulated FS for replay tests. The
// returned mount function must be called from a kernel task before
// replaying.
func replayRig(t *testing.T, seed int64, vols int) (*sched.VKernel, *fsys.FS, func(tk sched.Task)) {
	t.Helper()
	k := sched.NewVirtual(seed)
	store := fsys.NewStore()
	c := cache.New(k, cache.Config{Blocks: 512, Flush: cache.UPS(), Simulated: true}, store)
	fs := fsys.New(k, c, core.DefaultSimMover())
	store.Bind(fs)
	c.Start()
	mount := func(tk sched.Task) {
		for v := 1; v <= vols; v++ {
			drv := nullDrv{k, 1 << 20}
			part := layout.NewPartition(drv, v, 0, 1<<20, true)
			lay, err := volume.New(k, "vol", []layout.Layout{lfs.New(k, "vol", part, lfs.Config{SegBlocks: 64})}, volume.Config{Simulated: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := lay.Format(tk); err != nil {
				t.Errorf("format: %v", err)
			}
			if err := lay.Mount(tk); err != nil {
				t.Errorf("mount: %v", err)
			}
			if _, err := fs.AddVolume(tk, core.VolumeID(v), lay); err != nil {
				t.Errorf("AddVolume: %v", err)
			}
		}
	}
	return k, fs, mount
}

func TestReplaySmallTrace(t *testing.T) {
	k, fs, mount := replayRig(t, 21, 14)
	recs := Generate(Profiles()["1a"], 5, 2*time.Minute)
	rep := NewReplayer(fs, recs)
	k.Go("driver", func(tk sched.Task) {
		mount(tk)
		rep.Run(tk)
		k.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatalf("replay: %v", err)
	}
	res := rep.Result()
	if res.Ops == 0 {
		t.Fatal("no operations measured")
	}
	if res.Errors > res.Ops/20 {
		t.Fatalf("errors %d out of %d ops", res.Errors, res.Ops)
	}
	if res.Overall.Mean() <= 0 {
		t.Fatal("zero mean latency")
	}
	if len(res.PerOp) < 4 {
		t.Fatalf("only %d op classes measured", len(res.PerOp))
	}
}

func TestReplayDeterministic(t *testing.T) {
	runOnce := func() (int, time.Duration) {
		k, fs, mount := replayRig(t, 33, 3)
		p := Profiles()["3"]
		p.Volumes = 3
		recs := Generate(p, 9, time.Minute)
		rep := NewReplayer(fs, recs)
		k.Go("driver", func(tk sched.Task) {
			mount(tk)
			rep.Run(tk)
			k.Stop()
		})
		if err := k.Run(); err != nil {
			t.Fatalf("replay: %v", err)
		}
		return rep.Result().Ops, rep.Result().Overall.Mean()
	}
	ops1, mean1 := runOnce()
	ops2, mean2 := runOnce()
	if ops1 != ops2 || mean1 != mean2 {
		t.Fatalf("nondeterministic replay: (%d,%v) vs (%d,%v)", ops1, mean1, ops2, mean2)
	}
}

type nullDrv struct {
	k      sched.Kernel
	blocks int64
}

func (d nullDrv) Name() string                           { return "null" }
func (d nullDrv) Submit(t sched.Task, r *device.Request) {}
func (d nullDrv) Wait(t sched.Task, r *device.Request)   {}
func (d nullDrv) Do(t sched.Task, r *device.Request) error {
	t.Sleep(5 * time.Millisecond)
	return nil
}
func (d nullDrv) QueueLen() int                    { return 0 }
func (d nullDrv) CapacityBlocks() int64            { return d.blocks }
func (d nullDrv) DriverStats() *device.DriverStats { return nil }
func (d nullDrv) SetInjector(device.Interceptor)   {}
func (d nullDrv) Close() error                     { return nil }
