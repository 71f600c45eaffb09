//go:build race

package server

// The race detector makes sync.Pool drop a random share of what it is given,
// so pooled paths allocate under -race by design.
func init() { raceEnabled = true }
