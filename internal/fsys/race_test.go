//go:build race

package fsys

// raceEnabled reports a -race build, whose sync.Pool drops lent items
// at random, so pooled paths allocate.
const raceEnabled = true
