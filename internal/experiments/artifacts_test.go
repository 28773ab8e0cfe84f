package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestCommittedArtifactsReproduce regenerates every committed
// deterministic artifact with the parameters cmd/experiments uses by
// default (at -scale quick, the scale they were committed at) and
// demands the committed bytes. Every cell is a virtual-kernel
// simulation, so a byte of drift is a behaviour change the artifact
// must record: regenerate it with the command named in the failure.
func TestCommittedArtifactsReproduce(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates five artifacts (seconds)")
	}
	for _, a := range []struct {
		file, cmd string
		gen       func() ([]byte, error)
	}{
		{"bench_baseline.json", "-serving", func() ([]byte, error) {
			st, err := RunServingStudy()
			if err != nil {
				return nil, err
			}
			return ServingBaselineJSON(st)
		}},
		{"BENCH_4.json", "-reliability -scale quick", func() ([]byte, error) {
			st, err := RunReliabilityStudy(Parallel(), QuickScale(), "1a", DefaultSeed, nil, []int{1, 2})
			if err != nil {
				return nil, err
			}
			return ReliabilityJSON(st)
		}},
		{"BENCH_5.json", "-clustering -scale quick", func() ([]byte, error) {
			st, err := RunClusteringStudy(Parallel(), QuickScale(), "1b", DefaultSeed, nil, []int{0, 8, 32})
			if err != nil {
				return nil, err
			}
			return ClusteringJSON(st)
		}},
		{"BENCH_6.json", "-reliability -relintents -scale quick", func() ([]byte, error) {
			st, err := RunReliabilityIntentStudy(Parallel(), QuickScale(), "1a", DefaultSeed, nil, []int{1, 2})
			if err != nil {
				return nil, err
			}
			return ReliabilityJSON(st)
		}},
		{"BENCH_8.json", "-degraded", func() ([]byte, error) {
			st, err := RunDegradedStudy(DefaultSeed, nil, 3)
			if err != nil {
				return nil, err
			}
			return DegradedJSON(st)
		}},
	} {
		t.Run(a.file, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("..", "..", a.file))
			if err != nil {
				t.Fatal(err)
			}
			got, err := a.gen()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
				i := 0
				for i < len(gl) && i < len(wl) && bytes.Equal(gl[i], wl[i]) {
					i++
				}
				t.Fatalf("%s no longer reproduces (first difference at line %d); regenerate it with: go run ./cmd/experiments %s",
					a.file, i+1, a.cmd)
			}
		})
	}
}
