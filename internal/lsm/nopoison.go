//go:build !poison

package lsm

// poisonBuffers is off without -tags poison (see poison.go).
const poisonBuffers = false
