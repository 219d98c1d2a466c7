package timerdiscipline

import (
	"syscall"
	"unsafe"
)

func badNanosleep(ts *syscall.Timespec) {
	syscall.Nanosleep(ts, nil) // want "syscall.Nanosleep in a pacing package"
}

func badRawSleep(ts *syscall.Timespec) {
	syscall.Syscall(syscall.SYS_NANOSLEEP, uintptr(unsafe.Pointer(ts)), 0, 0)                 // want "syscall.SYS_NANOSLEEP in a pacing package"
	syscall.Syscall6(syscall.SYS_CLOCK_NANOSLEEP, 1, 0, uintptr(unsafe.Pointer(ts)), 0, 0, 0) // want "syscall.SYS_CLOCK_NANOSLEEP in a pacing package"
}

func badTimerfd(spec unsafe.Pointer) {
	fd, _, _ := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, 1, 0, 0)             // want "syscall.SYS_TIMERFD_CREATE in a pacing package"
	syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(spec), 0, 0, 0) // want "syscall.SYS_TIMERFD_SETTIME in a pacing package"
	syscall.Syscall(syscall.SYS_TIMERFD_GETTIME, fd, uintptr(spec), 0)           // want "syscall.SYS_TIMERFD_GETTIME in a pacing package"
}

// A syscall number held in a variable is smuggled just as well.
var sleepNR = syscall.SYS_NANOSLEEP // want "syscall.SYS_NANOSLEEP in a pacing package"

func allowedTimerfd() {
	//xmovie:allow-timer fixture: the one sanctioned precise tick driver
	syscall.Syscall(syscall.SYS_TIMERFD_CREATE, 1, 0, 0)
}

// The rest of the syscall package stays legal.
func wallClockRead(tv *syscall.Timeval) error {
	return syscall.Gettimeofday(tv)
}
