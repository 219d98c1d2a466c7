package timewheel

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// itimerspec mirrors struct itimerspec for timerfd_settime(2).
type itimerspec struct {
	interval syscall.Timespec
	value    syscall.Timespec
}

const clockMonotonic = 1 // CLOCK_MONOTONIC, the clock Go's monotonic readings use

// timerfdSleeper sleeps on a one-shot timerfd read through the runtime
// poller: the kernel timer wakes the tick goroutine within tens of
// microseconds of the boundary, and while it sleeps the goroutine is
// parked, not holding an OS thread in a blocking syscall. Each sleep arms
// the timer relative to the moment of the call, so it can only fire late,
// never early.
type timerfdSleeper struct {
	f     *os.File
	rc    syscall.RawConn
	spec  itimerspec
	armed bool
	errno syscall.Errno
	buf   [8]byte // expiration count read from the timerfd
	// waitFn is the method value s.wait, bound once so a sleep does not
	// allocate a callback.
	waitFn func(fd uintptr) bool
	// fallback takes over if the timerfd path ever fails, so the tick
	// loop never spins on a sleep that returns at once.
	fallback sleeper
}

// newPreciseSleeper returns the timerfd sleeper, or the runtime-timer
// sleeper where timerfd is unavailable (e.g. filtered by a seccomp
// profile).
func newPreciseSleeper() sleeper {
	//xmovie:allow-timer the wheel's precise tick driver: the ONE kernel timer every paced stream shares
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return newTimerSleeper()
	}
	// A non-blocking descriptor joins the runtime poller, so waiting on it
	// parks the goroutine instead of blocking a thread.
	f := os.NewFile(fd, "timewheel-timerfd")
	rc, err := f.SyscallConn()
	if err != nil {
		f.Close()
		return newTimerSleeper()
	}
	s := &timerfdSleeper{f: f, rc: rc}
	s.waitFn = s.wait
	return s
}

func (s *timerfdSleeper) sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	if s.fallback == nil {
		s.spec.value = syscall.NsecToTimespec(int64(d))
		s.armed, s.errno = false, 0
		if err := s.rc.Read(s.waitFn); err == nil && s.errno == 0 {
			return
		}
		s.fallback = newTimerSleeper()
	}
	s.fallback.sleep(d)
}

// wait is the RawConn.Read callback. RawConn.Read clears the descriptor's
// readiness before the first call, so the timer is armed there: its
// expiry cannot be lost to that reset, and no read is wasted on a timer
// that cannot have fired yet. Returning false parks until the timerfd is
// readable; the next call consumes the expiration count.
func (s *timerfdSleeper) wait(fd uintptr) bool {
	if !s.armed {
		s.armed = true
		//xmovie:allow-timer the wheel's precise tick driver, armed once per tick
		_, _, s.errno = syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&s.spec)), 0, 0, 0)
		return s.errno != 0
	}
	// A spurious wake-up (EAGAIN) parks again.
	_, err := syscall.Read(int(fd), s.buf[:])
	return err != syscall.EAGAIN
}

func (s *timerfdSleeper) close() {
	s.f.Close()
	if s.fallback != nil {
		s.fallback.close()
	}
}
