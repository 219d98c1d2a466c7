//go:build unix

package mtp

import (
	"net"
	"syscall"
)

// recvIO is a UDPConn's state for the non-blocking receive: the RawConn
// is fetched once and the read callback is a method value bound once, so
// a poll allocates nothing.
type recvIO struct {
	rc  syscall.RawConn // nil when the socket exposes no descriptor
	buf []byte
	n   int
	fn  func(fd uintptr) bool
}

func (r *recvIO) init(c *net.UDPConn, buf []byte) {
	rc, err := c.SyscallConn()
	if err != nil {
		return
	}
	r.rc, r.buf = rc, buf
	r.fn = r.read
}

// tryRecv performs one non-blocking datagram read into the conn's receive
// buffer. The runtime keeps every socket in non-blocking mode, so an empty
// socket buffer returns EAGAIN at once instead of blocking (a read
// deadline cannot do this — an already-expired deadline fails the read
// even when data is queued).
//
//xmovie:hotpath
func (r *recvIO) tryRecv() (int, bool) {
	if r.rc == nil {
		return 0, false
	}
	r.n = 0
	if err := r.rc.Read(r.fn); err != nil {
		return 0, false
	}
	return r.n, r.n > 0
}

func (r *recvIO) read(fd uintptr) bool {
	if n, err := syscall.Read(int(fd), r.buf); err == nil {
		r.n = n
	}
	// One attempt only: returning true tells the runtime we are done
	// whether or not data was available.
	return true
}
