//go:build race

package lfs

// raceEnabled reports a -race build, whose sync.Pool drops lent items
// at random, so the partition's pooled device requests allocate.
const raceEnabled = true
