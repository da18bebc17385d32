// Package netsim provides the simulated execution environment Fractal's
// experiments run on: network link models with application-level
// efficiency, device profiles with CPU-speed scaling, and a
// capacity-bounded server model for contention experiments. Simulated
// time is a time.Duration the experiments add up; nothing here reads a
// wall clock, so every figure is byte-identical run to run.
//
// The paper's testbed (physical desktop/laptop/PDA hosts on LAN/WLAN/
// Bluetooth, plus PlanetLab nodes) is replaced by these models; DESIGN.md
// documents why each substitution preserves the behaviour the evaluation
// measures.
package netsim

import (
	"fmt"
	"time"
)

// Seconds converts a floating-point second count into a Duration, guarding
// against negative and non-finite inputs which would otherwise corrupt the
// timeline.
func Seconds(s float64) (time.Duration, error) {
	if s < 0 || s != s || s > 1e12 {
		return 0, fmt.Errorf("netsim: invalid duration %v seconds", s)
	}
	return time.Duration(s * float64(time.Second)), nil
}
