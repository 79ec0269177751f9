//go:build !linux

package main

import (
	"fmt"
	"syscall"
	"time"
)

// cpuClock returns the CPU time the whole process has used (microsecond
// resolution); see clock_linux.go.
func cpuClock() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // EINVAL/EFAULT: impossible here
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
