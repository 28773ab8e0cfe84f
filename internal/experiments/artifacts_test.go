package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestCommittedArtifactsReproduce regenerates every pinned artifact
// of the study table at the parameters it was committed at and
// demands the committed bytes. Every cell is a virtual-kernel
// simulation, so a byte of drift is a behaviour change the artifact
// must record: regenerate it with the command named in the failure.
func TestCommittedArtifactsReproduce(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates six artifacts (seconds)")
	}
	for _, st := range Studies {
		if !st.Pinned {
			continue
		}
		t.Run(st.Artifact, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("..", "..", st.Artifact))
			if err != nil {
				t.Fatal(err)
			}
			p := StudyParams{Scale: QuickScale(), Seed: DefaultSeed}
			cmd := "-study " + st.Name
			if st.Scale != "" {
				p.Scale, _ = ScaleNamed(st.Scale)
				cmd += " -scale " + st.Scale
			}
			if !st.Commits(p) {
				t.Fatalf("study %s does not commit its artifact at its own parameters", st.Name)
			}
			_, got, err := st.Run(Parallel(), p)
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
					st.Artifact, i+1, cmd)
			}
		})
	}
}
