//go:build race

package vmtest

// RaceEnabled reports that the race detector is compiled in. Timing
// assertions mean nothing under its instrumentation, and sync.Pool
// drops a quarter of what it is given, so allocation budgets that
// include the fused executor's pooled scratch do not hold either.
const RaceEnabled = true
