//go:build !linux

package timewheel

// newPreciseSleeper falls back to the runtime timer off Linux.
func newPreciseSleeper() sleeper { return newTimerSleeper() }
