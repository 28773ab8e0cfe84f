//go:build !race

package lfs

const raceEnabled = false
