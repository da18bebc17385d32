//go:build race

package main

const (
	raceEnabled = true
	smokePages  = 3
)
