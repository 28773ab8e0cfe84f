package experiments

import "strings"

// StudyParams carries what a study run may vary: the rig, the seed,
// and the array shape the scaling study sweeps. Everything else a
// study needs is fixed in its Studies entry.
type StudyParams struct {
	Scale     Scale
	Seed      int64
	Widths    []int  // scaling only
	Placement string // scaling only
	Stripe    int    // scaling only
}

// A Study is one entry of the catalogue cmd/experiments runs.
type Study struct {
	Name string
	// Run returns the terminal table and, for a study with an
	// artifact, its JSON.
	Run func(e *Engine, p StudyParams) (table string, js []byte, err error)
	// Artifact is the committed file the study reproduces ("" =
	// none). Scale is the scale it was committed at, at that scale's
	// own duration and DefaultSeed; "" for a study whose rig is
	// fixed and ignores the scale.
	Artifact string
	Scale    string
	// Pinned artifacts reproduce byte for byte (virtual-kernel cells);
	// an unpinned one is a per-machine wall-clock trajectory.
	Pinned bool
}

// render pairs a study's table with its JSON.
func render[S any](st S, err error, table func(S) string, js func(S) ([]byte, error)) (string, []byte, error) {
	if err != nil {
		return "", nil, err
	}
	b, err := js(st)
	return table(st), b, err
}

// Studies is the study catalogue, in the order the CLI lists it.
var Studies = []Study{
	{Name: "serving", Artifact: "bench_baseline.json", Pinned: true,
		Run: func(*Engine, StudyParams) (string, []byte, error) {
			st, err := RunServingStudy()
			return render(st, err, ServingTable, ServingBaselineJSON)
		}},
	{Name: "clustering", Artifact: "BENCH_5.json", Scale: "quick", Pinned: true,
		Run: func(e *Engine, p StudyParams) (string, []byte, error) {
			st, err := RunClusteringStudy(e, p.Scale, "1b", p.Seed, nil, []int{0, 8, 32})
			return render(st, err, ClusteringTable, ClusteringJSON)
		}},
	{Name: "reliability", Artifact: "BENCH_4.json", Scale: "quick", Pinned: true,
		Run: func(e *Engine, p StudyParams) (string, []byte, error) {
			st, err := RunReliabilityStudy(e, p.Scale, "1a", p.Seed, nil, []int{1, 2})
			return render(st, err, ReliabilityTable, ReliabilityJSON)
		}},
	{Name: "intents", Artifact: "BENCH_6.json", Scale: "quick", Pinned: true,
		Run: func(e *Engine, p StudyParams) (string, []byte, error) {
			st, err := RunReliabilityIntentStudy(e, p.Scale, "1a", p.Seed, nil, []int{1, 2})
			return render(st, err, ReliabilityTable, ReliabilityJSON)
		}},
	{Name: "degraded", Artifact: "BENCH_8.json", Pinned: true,
		Run: func(_ *Engine, p StudyParams) (string, []byte, error) {
			st, err := RunDegradedStudy(p.Seed, []string{"mirrored", "parity"}, 3)
			return render(st, err, DegradedTable, DegradedJSON)
		}},
	{Name: "selfheal", Artifact: "BENCH_10.json", Pinned: true,
		Run: func(_ *Engine, p StudyParams) (string, []byte, error) {
			st, err := RunSelfHealStudy(p.Seed, []string{"mirrored", "parity"}, 3)
			return render(st, err, SelfHealTable, SelfHealJSON)
		}},
	{Name: "scaling",
		Run: func(e *Engine, p StudyParams) (string, []byte, error) {
			rows, err := RunArrayScaling(e, p.Scale, "1a", p.Seed, p.Widths, p.Placement, p.Stripe)
			if err != nil {
				return "", nil, err
			}
			return ArrayScalingTable(rows, "1a", p.Placement, p.Stripe), nil, nil
		}},
	{Name: "ablations", Run: runAblations},
}

// FindStudy looks a study up by name.
func FindStudy(name string) (Study, bool) {
	for _, st := range Studies {
		if st.Name == name {
			return st, true
		}
	}
	return Study{}, false
}

// ScaleNamed resolves a scale name: "paper" or "quick".
func ScaleNamed(name string) (Scale, bool) {
	switch name {
	case "paper":
		return PaperScale(), true
	case "quick":
		return QuickScale(), true
	}
	return Scale{}, false
}

// Commits reports whether p are the parameters the study's artifact
// was committed at, so a run with them may rewrite it in place.
func (st Study) Commits(p StudyParams) bool {
	if st.Artifact == "" || p.Seed != DefaultSeed {
		return false
	}
	if st.Scale == "" {
		return true
	}
	want, _ := ScaleNamed(st.Scale)
	return p.Scale.Name == want.Name && p.Scale.Duration == want.Duration
}

// runAblations runs the ablation suite on trace 1a (the cleaner and
// NVRAM-size ablations pick their own traces).
func runAblations(e *Engine, p StudyParams) (string, []byte, error) {
	s, seed := p.Scale, p.Seed
	var outs []string
	for _, run := range []func() (string, error){
		func() (string, error) { return AblateReplacement(e, s, "1a", seed) },
		func() (string, error) { return AblateQueueSched(e, s, "1a", seed) },
		func() (string, error) { return AblateLayout(e, s, "1a", seed) },
		func() (string, error) { return AblateDiskModel(e, s, "1a", seed) },
		func() (string, error) { return AblateCleaner(e, s, seed) },
		func() (string, error) { return AblateNVRAMSize(e, s, seed) },
		func() (string, error) { return AblateSchedulerPolicy(e, s, "1a", seed) },
	} {
		out, err := run()
		if err != nil {
			return "", nil, err
		}
		outs = append(outs, out)
	}
	return strings.Join(outs, "\n"), nil, nil
}
