//go:build !linux

package main

import "time"

// threadCPU is not available here: readings fall back to the clock.
func threadCPU() time.Duration { return 0 }
