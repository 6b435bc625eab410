//go:build race

package replay_test

// raceEnabled reports that the race detector is on; its instrumentation
// allocates, so allocation counts mean nothing under it.
const raceEnabled = true
