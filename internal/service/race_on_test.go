//go:build race

package service

// raceEnabled reports that the race detector is on. Under it sync.Pool drops
// a share of what is Put, so allocation counts mean nothing.
const raceEnabled = true
