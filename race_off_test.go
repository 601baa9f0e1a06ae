//go:build !race

package psd

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
