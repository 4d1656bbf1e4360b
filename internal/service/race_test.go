//go:build race

package service

// The race detector instruments lock and map accesses, so allocation
// counts mean nothing under it.
func init() { raceEnabled = true }
