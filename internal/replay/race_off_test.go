//go:build !race

package replay_test

const raceEnabled = false
