//go:build race

package psd

// raceEnabled reports that the race detector is active: it instruments
// allocation, so allocation-count assertions do not hold.
const raceEnabled = true
