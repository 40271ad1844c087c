//go:build !race

package vmtest

// RaceEnabled reports that the race detector is compiled in.
const RaceEnabled = false
