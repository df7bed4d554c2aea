//go:build race

package server

// raceEnabled reports that the race detector is on: it allocates on its
// own account and drops sync.Pool puts at random, so allocation counts
// do not hold under it.
const raceEnabled = true
