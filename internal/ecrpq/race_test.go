//go:build race

package ecrpq_test

// raceEnabled reports that the race detector is on: it slows the code it
// instruments several times over, so wall-clock bounds do not hold.
const raceEnabled = true
