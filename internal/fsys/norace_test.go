//go:build !race

package fsys

const raceEnabled = false
