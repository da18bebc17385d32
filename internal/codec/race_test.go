//go:build race

package codec

// raceEnabled reports that the race detector is instrumenting this build,
// which slows single-goroutine sweeps about tenfold without checking
// anything more in them.
const raceEnabled = true
