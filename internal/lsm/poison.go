//go:build poison

package lsm

// poisonBuffers is set by -tags poison: a block buffer is filled with 0xDB
// as it becomes a spare, so a reader still using it reads garbage at once
// rather than, later, another block's bytes.
const poisonBuffers = true
