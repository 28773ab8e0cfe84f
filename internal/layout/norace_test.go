//go:build !race

package layout

const raceEnabled = false
