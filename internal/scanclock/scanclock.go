// Package scanclock is the one clock the scan kernels of internal/core
// and internal/pir poll deadlines against (the Done channel alone is not
// enough on a single-P runtime, where a busy scan starves the context's
// timer goroutine). A seam rather than a call to time.Now so tests can
// install a deterministic clock and state cancellation promptness in
// poll counts instead of racing the scheduler.
package scanclock

import "time"

var now = time.Now

// Now reads the deadline-poll clock.
func Now() time.Time { return now() }

// Set replaces the deadline-poll clock and returns a restore function.
// Test seam: swap only while no scan is running, restore before the
// test ends.
func Set(clock func() time.Time) (restore func()) {
	prev := now
	now = clock
	return func() { now = prev }
}
