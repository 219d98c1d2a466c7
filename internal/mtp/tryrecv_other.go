//go:build !unix

package mtp

import (
	"net"
	"time"
)

// recvIO has no non-blocking recv on this platform; it approximates one
// with a one-millisecond read deadline. Buffered datagrams return
// immediately; an empty socket costs at most the deadline, which only
// slightly loosens pacing — crucially, credit-based adaptation keeps
// working, it never silently starves. (An already-expired deadline would
// not do: Go fails such reads even when data is queued.)
type recvIO struct {
	c   *net.UDPConn
	buf []byte
}

func (r *recvIO) init(c *net.UDPConn, buf []byte) { r.c, r.buf = c, buf }

func (r *recvIO) tryRecv() (int, bool) {
	if err := r.c.SetReadDeadline(time.Now().Add(time.Millisecond)); err != nil {
		return 0, false
	}
	n, err := r.c.Read(r.buf)
	_ = r.c.SetReadDeadline(time.Time{})
	if err != nil || n == 0 {
		return 0, false
	}
	return n, true
}
