//go:build race

package core

// raceEnabled reports that the race detector is instrumenting this build;
// its shadow-memory bookkeeping allocates, so exact allocs-per-run
// assertions are meaningless and are skipped.
const raceEnabled = true
