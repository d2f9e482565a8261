package main

import (
	"syscall"
	"time"
)

// threadCPU is the processor time the calling thread has used.
func threadCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_THREAD, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
