//go:build !race

package minup

// raceEnabled reports a race-detector build, in which sync.Pool drops a
// random share of the values it is given.
const raceEnabled = false
