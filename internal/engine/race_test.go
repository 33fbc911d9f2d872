//go:build race

package engine

// raceEnabled: the race detector's instrumentation allocates, so allocation
// counts are not the program's.
const raceEnabled = true
