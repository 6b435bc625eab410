//go:build race

package router

// raceEnabled reports that the race detector is on; its instrumentation
// allocates, so allocation counts mean nothing under it.
const raceEnabled = true
