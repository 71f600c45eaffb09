//go:build unix

package lsm

import (
	"syscall"
	"time"
)

// processCPU returns the user plus system CPU time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
