// Package timewheel implements a hashed timer wheel shared by every paced
// stream of the process.
//
// The data plane arms one timer per frame slot: at 25 fps a stream waits
// ~25 times a second, and a server fanning out to tens of thousands of
// streams would otherwise create (and garbage-collect) that many
// time.NewTimer heap entries per second, each with its own runtime timer.
// The wheel replaces them with pooled waiters hashed into a fixed ring of
// slots advanced by a single goroutine, so arming a wait in the steady
// state allocates nothing and the runtime sees one timer regardless of how
// many streams pace against it.
//
// Precision: a wait fires at the first tick boundary at or after the
// moment it was armed plus d — never early, and at most one tick late
// plus the tick goroutine's wake-up latency. Deadlines are computed from
// the clock, not from the cursor. On Linux the tick goroutine sleeps on a
// timerfd read through the runtime poller, which wakes within ~0.1ms of
// the boundary; a plain runtime timer would round every sub-millisecond
// sleep up to about a millisecond (Go issue 44343), so most slots would
// fire most of a tick late. Elsewhere the runtime timer is the fallback. The stream layer's measured-wait pacing credits the time
// actually slept, so the residual sub-tick lateness shifts a schedule
// instead of accumulating as drift or phantom lateness.
//
//xmovie:pacing-package
package timewheel

import (
	"sync"
	"sync/atomic"
	"time"
)

// Default wheel geometry.
const (
	// DefaultTick is the wheel's firing granularity: just under a
	// millisecond, and deliberately incommensurate with the common kernel
	// scheduler-tick periods (1, 3.33, 4 and 10ms). Linux checks CPU-time
	// timers only on its scheduler tick, and Go's CPU profiler samples
	// through them. A wheel firing on a grid commensurate with that tick
	// holds the process's wake-up bursts at one fixed phase against it,
	// and a CPU profile then records anywhere from a few percent to 90%
	// of the CPU the process used, depending on that phase.
	// At 962.1µs successive scheduler ticks fall at well-spread phases of
	// the wheel's cycle (see EXPERIMENTS.md).
	DefaultTick = 962100 * time.Nanosecond
	// DefaultSlots is the ring size; waits longer than Tick×Slots survive
	// via per-waiter absolute deadlines (a hashed wheel, not a hierarchical
	// one — long waits are rare on the pacing path).
	DefaultSlots = 512
)

// Stats counts a wheel's activity since creation.
type Stats struct {
	// Ticks is how many times the wheel advanced one slot.
	Ticks int64
	// Armed counts Wait/NewTimer arms; Fired and Canceled partition their
	// completions (timers still pending account for the difference).
	Armed    int64
	Fired    int64
	Canceled int64
}

// waiter states: exactly one of the wheel (fire) and the caller (cancel)
// wins the CAS and owns the waiter's afterlife.
const (
	waiterArmed int32 = iota
	waiterFired
	waiterCanceled
)

// waiter is one armed timer. The channel is buffered (capacity 1) and
// signalled by send, never closed, so a pooled waiter is reusable once
// drained.
type waiter struct {
	ch    chan struct{}
	state atomic.Int32
	// deadline is the absolute tick index the waiter fires at; a deadline
	// beyond one ring revolution keeps the waiter in its slot until the
	// revolution that reaches it.
	deadline int64
	next     *waiter
}

var waiterPool = sync.Pool{New: func() any { return &waiter{ch: make(chan struct{}, 1)} }}

// Wheel is a hashed timer wheel: slots[i] holds the waiters whose deadline
// tick hashes to i. One goroutine advances the cursor every tick while any
// waiter is armed, and parks when the wheel drains.
type Wheel struct {
	tick  time.Duration
	mask  int64
	slots []*waiter

	// newSleeper builds the tick goroutine's sleeper each time it starts.
	newSleeper func() sleeper

	mu      sync.Mutex
	cur     int64 // absolute tick index of the next slot to fire
	epoch   time.Time
	active  int  // armed waiters
	running bool // ticker goroutine live

	ticks, armed, fired, canceled atomic.Int64
}

// New builds a wheel with the given tick and slot count (zero values select
// the defaults; slots is rounded up to a power of two).
func New(tick time.Duration, slots int) *Wheel {
	if tick <= 0 {
		tick = DefaultTick
	}
	if slots <= 0 {
		slots = DefaultSlots
	}
	n := 1
	for n < slots {
		n <<= 1
	}
	return &Wheel{
		tick:       tick,
		mask:       int64(n - 1),
		slots:      make([]*waiter, n),
		epoch:      time.Now(),
		newSleeper: newPreciseSleeper,
	}
}

// defaultWheel is the process-wide wheel every paced stream shares.
var (
	defaultOnce  sync.Once
	defaultWheel *Wheel
)

// Default returns the process-wide shared wheel, creating it on first use.
func Default() *Wheel {
	defaultOnce.Do(func() { defaultWheel = New(DefaultTick, DefaultSlots) })
	return defaultWheel
}

// maxWait caps a wait so the deadline arithmetic cannot overflow (~146
// years, indistinguishable from forever for a pacing wait).
const maxWait = time.Duration(1 << 62)

// arm inserts a waiter firing at the first tick boundary at or after
// now+d and returns it.
//
//xmovie:hotpath
func (w *Wheel) arm(d time.Duration) *waiter {
	//xmovie:pool-escape ownership transfers to the slot ring; fireSlot/cancel/Wait pool the waiter after its CAS settles
	t := waiterPool.Get().(*waiter)
	t.state.Store(waiterArmed)
	if d > maxWait {
		d = maxWait
	}
	w.mu.Lock()
	elapsed := time.Since(w.epoch)
	if !w.running {
		// Restart before computing the deadline, so the cursor reset
		// cannot land past it.
		w.running = true
		w.cur = int64(elapsed / w.tick)
		//xmovie:allow-alloc first arm after an idle period restarts the tick goroutine; steady state never takes this branch
		go w.run()
	}
	t.deadline = deadlineTick(elapsed, d, w.tick, w.cur)
	slot := t.deadline & w.mask
	t.next = w.slots[slot]
	w.slots[slot] = t
	w.active++
	w.mu.Unlock()
	w.armed.Add(1)
	return t
}

// deadlineTick returns the tick index a wait of d armed at elapsed (since
// the epoch) fires at: the first tick boundary at or after elapsed+d.
// The deadline counts from the clock, not from the cursor: the cursor
// runs one slot ahead of the clock between ticks, so cursor-relative
// deadlines would add a tick to every wait. A deadline below the cursor
// would wait a whole revolution, so it is clamped to the cursor; the tick
// goroutine always sleeps until the cursor's boundary, so no arm ever
// needs to wake it.
func deadlineTick(elapsed, d, tick time.Duration, cur int64) int64 {
	deadline := int64((elapsed + d + tick - 1) / tick)
	if deadline < cur {
		deadline = cur
	}
	return deadline
}

// run advances the wheel while waiters are armed, then parks. Each pass
// fires every slot whose boundary has passed and sleeps until the next
// one. A sleeper that wakes early only costs another pass: the slot fires
// on the wake-up that reaches its boundary, never a tick later.
func (w *Wheel) run() {
	s := w.newSleeper()
	defer s.close()
	for {
		w.mu.Lock()
		if w.active == 0 {
			w.running = false
			w.mu.Unlock()
			return
		}
		target := int64(time.Since(w.epoch) / w.tick)
		for w.cur <= target {
			w.fireSlot(w.cur)
			w.cur++
			w.ticks.Add(1)
		}
		next := w.epoch.Add(time.Duration(w.cur) * w.tick)
		w.mu.Unlock()
		s.sleep(time.Until(next))
	}
}

// fireSlot releases every waiter in slot whose deadline has arrived.
// Caller holds w.mu.
//
//xmovie:hotpath
func (w *Wheel) fireSlot(tick int64) {
	slot := tick & w.mask
	var keep *waiter
	t := w.slots[slot]
	for t != nil {
		next := t.next
		switch {
		case t.state.Load() == waiterCanceled:
			// The canceler returned long ago; the wheel reclaims the husk.
			w.active--
			t.next = nil
			waiterPool.Put(t)
		case t.deadline <= tick:
			w.active--
			t.next = nil
			if t.state.CompareAndSwap(waiterArmed, waiterFired) {
				w.fired.Add(1)
				t.ch <- struct{}{}
			} else {
				// Canceled between the state check and the CAS.
				waiterPool.Put(t)
			}
		default:
			// A later revolution's waiter hashed here; keep it.
			t.next = keep
			keep = t
		}
		t = next
	}
	w.slots[slot] = keep
}

// cancel marks a waiter dead. If the wheel already fired it, the signal is
// drained so the waiter can be pooled; either way the caller must not touch
// it afterwards. Only for waiters whose channel the caller owns exclusively
// (Wait) — a fired signal may still be in flight, so the drain blocks
// briefly. Timer.Stop must not use it (the user may have consumed C()).
func (w *Wheel) cancel(t *waiter) {
	if t.state.CompareAndSwap(waiterArmed, waiterCanceled) {
		// The wheel will find the husk and pool it; nothing to drain.
		w.canceled.Add(1)
		return
	}
	// Lost the race: the signal is in flight (or landed). Drain and pool
	// here — the wheel is done with the waiter once it fired.
	<-t.ch
	waiterPool.Put(t)
}

// Wait blocks until d has elapsed or cancel is signalled (closed or sent
// to); it reports false when canceled first. A nil cancel waits
// unconditionally. This is the pacing primitive: one pooled waiter, no
// allocation in the steady state.
//
//xmovie:hotpath
func (w *Wheel) Wait(d time.Duration, cancel <-chan struct{}) bool {
	if d <= 0 {
		return true
	}
	t := w.arm(d)
	select {
	case <-t.ch:
		waiterPool.Put(t)
		return true
	case <-cancel:
		w.cancel(t)
		return false
	}
}

// Sleep blocks for d on the wheel's granularity.
func (w *Wheel) Sleep(d time.Duration) { w.Wait(d, nil) }

// Timer is one armed wheel timer for callers that need the channel form
// (select against other events). Stop releases it; the timer must not be
// used after Stop, and C fires at most once.
type Timer struct {
	w *Wheel
	t *waiter
}

// NewTimer arms a timer firing once after d.
func (w *Wheel) NewTimer(d time.Duration) *Timer {
	return &Timer{w: w, t: w.arm(d)}
}

// C returns the firing channel (signalled by send, capacity 1).
func (t *Timer) C() <-chan struct{} { return t.t.ch }

// Stop cancels the timer. Safe whether or not the timer fired, and whether
// or not the caller consumed C(); the Timer is dead afterwards.
func (t *Timer) Stop() {
	if t.t == nil {
		return
	}
	if t.t.state.CompareAndSwap(waiterArmed, waiterCanceled) {
		// The wheel will find the husk in its slot and pool it.
		t.w.canceled.Add(1)
	} else {
		// Already fired. The signal is in C(), consumed by the caller, or —
		// in a narrow race — still being sent by the wheel. Drain what is
		// there and let the GC take the waiter: pooling it here could hand a
		// waiter with a signal still in flight to a fresh arm.
		select {
		case <-t.t.ch:
		default:
		}
	}
	t.t = nil
}

// Stats snapshots the wheel's counters.
func (w *Wheel) Stats() Stats {
	return Stats{
		Ticks:    w.ticks.Load(),
		Armed:    w.armed.Load(),
		Fired:    w.fired.Load(),
		Canceled: w.canceled.Load(),
	}
}
