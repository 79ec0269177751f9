package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

const clockProcessCPUTimeID = 2 // CLOCK_PROCESS_CPUTIME_ID

// cpuClock returns the CPU time the whole process has used, to the
// nanosecond: every thread, user and system, so the server's goroutines and
// the garbage collector's background work count too. On a shared virtual
// machine it leaves out the time the hypervisor gives the CPU to other
// guests (steal), which moves wall-clock figures by tens of percent from one
// minute to the next.
func cpuClock() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID,
		uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime: %v", errno)) // EINVAL/EFAULT: impossible for this clock and pointer
	}
	return time.Duration(ts.Nano())
}
