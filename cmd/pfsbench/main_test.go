package main

import (
	"os"
	"path/filepath"
	"testing"
)

// write drops a hand-written result file into the test's directory.
func write(t *testing.T, name, json string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(json), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// The committed baseline pins virtual-kernel cells only; that is what
// keeps real-kernel cells (wall-clock, per-machine) out of the gate.
const baselineJSON = `{"bench": 3, "gomaxprocs": 1, "runs": [
  {"kernel": "virtual", "clients": 1, "depth": 4, "shards": 1, "ops_per_sec": 100},
  {"kernel": "virtual", "clients": 4, "depth": 4, "shards": 1, "ops_per_sec": 200}
]}`

func TestRunCompare(t *testing.T) {
	base := write(t, "base.json", baselineJSON)
	for _, c := range []struct {
		name, current string
		want          int
	}{
		{"unchanged", baselineJSON, 0},
		{"drop within the threshold", `{"runs": [
			{"kernel": "virtual", "clients": 1, "depth": 4, "shards": 1, "ops_per_sec": 76},
			{"kernel": "virtual", "clients": 4, "depth": 4, "shards": 1, "ops_per_sec": 200}]}`, 0},
		{"drop beyond the threshold", `{"runs": [
			{"kernel": "virtual", "clients": 1, "depth": 4, "shards": 1, "ops_per_sec": 100},
			{"kernel": "virtual", "clients": 4, "depth": 4, "shards": 1, "ops_per_sec": 149}]}`, 1},
		{"cell missing from the baseline is ignored", `{"runs": [
			{"kernel": "virtual", "clients": 8, "depth": 4, "shards": 1, "ops_per_sec": 1},
			{"kernel": "virtual", "clients": 4, "depth": 4, "shards": 1, "placement": "parity", "width": 3, "ops_per_sec": 1}]}`, 0},
		{"real-kernel cells are not gated", `{"runs": [
			{"kernel": "real", "clients": 1, "depth": 4, "shards": 1, "ops_per_sec": 1},
			{"kernel": "real", "clients": 4, "depth": 4, "shards": 1, "ops_per_sec": 1}]}`, 0},
	} {
		if got := runCompare(write(t, "cur.json", c.current), base, 0.25); got != c.want {
			t.Errorf("%s: runCompare = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestRunZeroStaged(t *testing.T) {
	for _, c := range []struct {
		name, file string
		want       int
	}{
		{"clean clustered real classic cell", `{"runs": [
			{"kernel": "real", "clients": 1, "cluster": 16, "staged_copy_bytes": 0}]}`, 0},
		{"dirty clustered real classic cell", `{"runs": [
			{"kernel": "real", "clients": 1, "cluster": 16, "staged_copy_bytes": 0},
			{"kernel": "real", "clients": 4, "cluster": 16, "staged_copy_bytes": 4096}]}`, 1},
		{"redundant, virtual and unclustered cells are exempt", `{"runs": [
			{"kernel": "real", "clients": 4, "cluster": 16, "placement": "parity", "width": 3, "staged_copy_bytes": 4096},
			{"kernel": "virtual", "clients": 4, "cluster": 16, "staged_copy_bytes": 4096},
			{"kernel": "real", "clients": 4, "cluster": 1, "staged_copy_bytes": 4096}]}`, 0},
	} {
		if got := runZeroStaged(write(t, "res.json", c.file)); got != c.want {
			t.Errorf("%s: runZeroStaged = %d, want %d", c.name, got, c.want)
		}
	}
}
