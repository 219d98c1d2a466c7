package timewheel

import "time"

// sleeper blocks the tick goroutine between tick boundaries. One is built
// each time the tick goroutine starts and closed when it parks.
type sleeper interface {
	// sleep blocks for at least d; a non-positive d returns at once.
	sleep(d time.Duration)
	close()
}

// timerSleeper is the portable sleeper: one runtime timer, re-armed per
// tick. On Linux the runtime rounds sub-millisecond timers up to about a
// millisecond, so it serves only where no precise sleeper exists.
type timerSleeper struct{ t *time.Timer }

func newTimerSleeper() sleeper {
	//xmovie:allow-timer the wheel's portable tick driver: the ONE runtime timer every paced stream shares
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &timerSleeper{t: t}
}

func (s *timerSleeper) sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	s.t.Reset(d)
	<-s.t.C
}

func (s *timerSleeper) close() { s.t.Stop() }
