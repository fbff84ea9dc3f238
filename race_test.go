//go:build race

package ctdf

// raceBuild reports whether the race detector is on: its sync.Pool drops
// make a run's allocation count vary from run to run.
const raceBuild = true
