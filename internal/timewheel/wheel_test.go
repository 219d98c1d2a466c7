package timewheel

import (
	"slices"
	"sync"
	"testing"
	"time"
)

func TestWaitElapses(t *testing.T) {
	for _, tc := range []struct {
		name    string
		sleeper func() sleeper
	}{
		{"precise", newPreciseSleeper},
		{"runtime-timer", newTimerSleeper},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := New(time.Millisecond, 64)
			w.newSleeper = tc.sleeper
			start := time.Now()
			if !w.Wait(5*time.Millisecond, nil) {
				t.Fatal("uncanceled Wait returned false")
			}
			if e := time.Since(start); e < 5*time.Millisecond {
				t.Fatalf("Wait(5ms) returned early, after %v", e)
			}
			st := w.Stats()
			if st.Armed != 1 || st.Fired != 1 {
				t.Fatalf("stats = %+v, want 1 armed / 1 fired", st)
			}
		})
	}
}

// TestDeadlineTick pins the deadline arithmetic without a clock: a wait
// fires at the first tick boundary at or after arm time + d. Between
// ticks the cursor is one slot ahead of the clock, so counting from the
// cursor (cursor + ceil(d/tick)) would fire a tick late.
func TestDeadlineTick(t *testing.T) {
	const ms = time.Millisecond
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	for _, tc := range []struct {
		name    string
		elapsed time.Duration
		d       time.Duration
		tick    time.Duration // 0: 1ms
		cur     int64
		want    int64
	}{
		// Armed 50µs after tick 10 fired: the cursor already points at 11.
		{"sub-tick wait just after a tick", us(10050), us(500), 0, 11, 11},
		{"multi-tick fractional wait", us(10050), us(2300), 0, 11, 13},
		{"whole-tick wait", us(10050), ms, 0, 11, 12},
		{"late in the tick", us(10900), us(500), 0, 11, 12},
		{"exactly on a boundary", 10 * ms, ms, 0, 11, 11},
		{"one nanosecond wait", us(10050), 1, 0, 11, 11},
		// The ticker lags the clock: the deadline still counts from the clock.
		{"cursor behind the clock", us(10050), us(500), 0, 8, 11},
		// A deadline the cursor has passed is clamped, not left for a revolution.
		{"clamped to the cursor", us(10050), us(500), 0, 14, 14},
		{"coarser tick", us(10050), us(500), 4 * ms, 3, 3},
	} {
		tick := tc.tick
		if tick == 0 {
			tick = ms
		}
		if got := deadlineTick(tc.elapsed, tc.d, tick, tc.cur); got != tc.want {
			t.Errorf("%s: deadlineTick(%v, %v, %v, cur %d) = %d, want %d",
				tc.name, tc.elapsed, tc.d, tick, tc.cur, got, tc.want)
		}
		// Whatever the cursor, a deadline is never before elapsed+d.
		if got := deadlineTick(tc.elapsed, tc.d, tick, tc.cur); time.Duration(got)*tick < tc.elapsed+tc.d {
			t.Errorf("%s: deadline tick %d is before elapsed+d", tc.name, got)
		}
	}
}

// TestPreciseSleeperOvershoot pins the tick driver: a sub-millisecond
// sleep must end close to its duration. The runtime timer rounds such a
// sleep up to about a millisecond; the precise driver overshoots by tens
// of microseconds. Skipped where only the runtime timer exists.
func TestPreciseSleeperOvershoot(t *testing.T) {
	s := newPreciseSleeper()
	defer s.close()
	if _, coarse := s.(*timerSleeper); coarse {
		t.Skip("no precise tick driver on this platform")
	}
	const d = 300 * time.Microsecond
	const n = 51
	over := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		s.sleep(d)
		e := time.Since(start)
		if e < d {
			t.Fatalf("sleep(%v) returned early, after %v", d, e)
		}
		over = append(over, e-d)
	}
	slices.Sort(over)
	if med := over[n/2]; med >= 250*time.Microsecond {
		t.Fatalf("median overshoot of sleep(%v) = %v, want < 250µs", d, med)
	}
}

// TestWaitPrecision bounds lateness from above: a Wait(1ms) armed at an
// arbitrary phase of the tick must return within the boundary that
// follows arm time + 1ms, plus the tick goroutine's wake-up latency. A
// Wait(d) can never return before d, so the bound is on the time beyond d:
// its median must stay under 1.5 ticks. A wheel that counted deadlines
// from the cursor, or whose tick driver overslept by the runtime timer's
// ~1ms rounding, misses it. Skipped where only the runtime-timer tick
// driver exists.
func TestWaitPrecision(t *testing.T) {
	s := newPreciseSleeper()
	_, coarse := s.(*timerSleeper)
	s.close()
	if coarse {
		t.Skip("no precise tick driver on this platform")
	}
	const tick = time.Millisecond
	const n = 101
	w := New(tick, 64)
	late := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		// Spin to a spread of phases within the tick (a spin, not a sleep:
		// a runtime sleep would itself round to the millisecond).
		phase := time.Duration(i*37%100) * tick / 100
		for spin := time.Now(); time.Since(spin) < phase; {
		}
		start := time.Now()
		w.Wait(tick, nil)
		e := time.Since(start)
		if e < tick {
			t.Fatalf("Wait(%v) returned early, after %v", tick, e)
		}
		late = append(late, e-tick)
	}
	slices.Sort(late)
	if med := late[n/2]; med >= 3*tick/2 {
		t.Fatalf("median lateness past d = %v, want < 1.5 ticks (p10 %v, p90 %v)", med, late[n/10], late[9*n/10])
	}
}

func TestWaitZeroAndNegative(t *testing.T) {
	w := New(time.Millisecond, 64)
	if !w.Wait(0, nil) || !w.Wait(-time.Second, nil) {
		t.Fatal("non-positive Wait must return true immediately")
	}
	if st := w.Stats(); st.Armed != 0 {
		t.Fatalf("non-positive waits armed %d timers", st.Armed)
	}
}

func TestWaitCanceled(t *testing.T) {
	w := New(time.Millisecond, 64)
	cancel := make(chan struct{})
	close(cancel)
	start := time.Now()
	if w.Wait(time.Hour, cancel) {
		t.Fatal("canceled Wait returned true")
	}
	if e := time.Since(start); e > time.Second {
		t.Fatalf("canceled Wait took %v", e)
	}
}

// TestLongWaitRounds exercises deadlines beyond one ring revolution: a
// 64-slot wheel at 1ms must still fire a 100ms wait at ~100ms, not at the
// first revolution's slot pass (~36ms).
func TestLongWaitRounds(t *testing.T) {
	w := New(time.Millisecond, 64)
	start := time.Now()
	if !w.Wait(100*time.Millisecond, nil) {
		t.Fatal("Wait returned false")
	}
	if e := time.Since(start); e < 95*time.Millisecond {
		t.Fatalf("100ms wait fired after only %v (revolution bug)", e)
	}
}

func TestTimerFireAndStop(t *testing.T) {
	w := New(time.Millisecond, 64)
	tm := w.NewTimer(3 * time.Millisecond)
	select {
	case <-tm.C():
	case <-time.After(2 * time.Second):
		t.Fatal("timer never fired")
	}
	tm.Stop() // stopping a fired timer must be safe
	tm2 := w.NewTimer(time.Hour)
	tm2.Stop()
	tm2.Stop() // and idempotent
	if st := w.Stats(); st.Canceled != 1 {
		t.Fatalf("canceled = %d, want 1", st.Canceled)
	}
}

// TestWheelParks verifies the tick goroutine shuts down when the wheel
// drains and restarts on the next arm.
func TestWheelParks(t *testing.T) {
	w := New(time.Millisecond, 64)
	w.Sleep(2 * time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for {
		w.mu.Lock()
		running := w.running
		w.mu.Unlock()
		if !running {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("ticker still running on a drained wheel")
		}
		time.Sleep(time.Millisecond)
	}
	// Re-arming after the park must work.
	if !w.Wait(2*time.Millisecond, nil) {
		t.Fatal("Wait after park failed")
	}
}

// TestConcurrentArmCancel hammers one wheel from many goroutines with a
// racing mix of waits that fire and waits that are canceled mid-flight, and
// checks the books balance: every armed timer is eventually fired or
// canceled exactly once, and pooled waiters never cross signals (a crossed
// signal shows up as a Wait returning before its deadline).
func TestConcurrentArmCancel(t *testing.T) {
	w := New(time.Millisecond, 64)
	const goroutines = 32
	const iters = 200
	var early atomic32
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				d := time.Duration(1+(g+i)%7) * time.Millisecond
				if (g+i)%3 == 0 {
					// Cancel roughly a third mid-flight, at a racy moment.
					cancel := make(chan struct{})
					go func() {
						time.Sleep(time.Duration((g * i) % 3000 * int(time.Microsecond)))
						close(cancel)
					}()
					start := time.Now()
					if w.Wait(d, cancel) && time.Since(start) < d-time.Millisecond {
						early.inc()
					}
				} else {
					start := time.Now()
					if !w.Wait(d, nil) {
						t.Error("uncanceled Wait returned false")
						return
					}
					if time.Since(start) < d-time.Millisecond {
						early.inc()
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if n := early.load(); n > 0 {
		t.Fatalf("%d waits fired before their deadline (crossed pooled signal)", n)
	}
	st := w.Stats()
	if st.Fired+st.Canceled != st.Armed {
		t.Fatalf("books do not balance: %+v", st)
	}
}

// TestConcurrentTimers races NewTimer/Stop against firing from many
// goroutines; the invariant is simply no deadlock, no double signal, and
// balanced books.
func TestConcurrentTimers(t *testing.T) {
	w := New(time.Millisecond, 64)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tm := w.NewTimer(time.Duration(1+i%5) * time.Millisecond)
				if i%2 == 0 {
					select {
					case <-tm.C():
					case <-time.After(2 * time.Second):
						t.Error("timer wedged")
						return
					}
					tm.Stop()
				} else {
					// Stop at a racy moment relative to the fire.
					time.Sleep(time.Duration(i%3) * time.Millisecond)
					tm.Stop()
				}
			}
		}(g)
	}
	wg.Wait()
	st := w.Stats()
	if st.Fired+st.Canceled != st.Armed {
		t.Fatalf("books do not balance: %+v", st)
	}
}

func TestDefaultIsShared(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default() must return one process-wide wheel")
	}
}

// atomic32 is a tiny test counter (avoids importing sync/atomic names that
// collide with the package under test).
type atomic32 struct {
	mu sync.Mutex
	n  int
}

func (a *atomic32) inc() { a.mu.Lock(); a.n++; a.mu.Unlock() }
func (a *atomic32) load() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.n
}
