//go:build !unix

package lsm

import "time"

// processCPU is not measured here: it reads 0.
func processCPU() time.Duration { return 0 }
