//go:build race

package pathquery_test

// raceEnabled reports that the race detector is on: it allocates on its
// own account, so exact allocation counts do not hold under it.
const raceEnabled = true
