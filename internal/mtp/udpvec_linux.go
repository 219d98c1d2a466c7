//go:build linux && (amd64 || arm64)

package mtp

import (
	"net"
	"syscall"
	"unsafe"
)

// mmsghdr mirrors struct mmsghdr for sendmmsg(2).
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

// maxMmsg bounds one sendmmsg call; the stream sender's coalescing window
// is smaller, so this only guards foreign callers.
const maxMmsg = 64

// vecIO is a UDPConn's state for the vectored and batched send paths. The
// RawConn is fetched once (SyscallConn allocates on every call), and the
// iovec/mmsghdr scratch and the syscall callbacks live here instead of in
// per-call closures, so a send allocates nothing. The scratch is shared
// by every send on the conn, which is why a UDPConn has a single sender.
type vecIO struct {
	rc   syscall.RawConn // nil when the socket exposes no descriptor
	iovs [2 * maxMmsg]syscall.Iovec
	msgs [maxMmsg]mmsghdr
	// Arguments and results of the callbacks below.
	niov, npkts, sent int
	errno             syscall.Errno
	// Method values bound once, so passing them to RawConn.Write does not
	// allocate a closure per send.
	writevFn, sendmmsgFn func(fd uintptr) bool
}

func (v *vecIO) init(c *net.UDPConn) {
	rc, err := c.SyscallConn()
	if err != nil {
		return
	}
	v.rc = rc
	for i := range v.msgs {
		v.msgs[i].hdr.Iov = &v.iovs[2*i]
	}
	v.writevFn = v.writev
	v.sendmmsgFn = v.sendmmsg
}

// sendVec delivers hdr+payload as one datagram on a connected UDP socket
// without concatenating them in user space: writev with two iovecs on a
// connected SOCK_DGRAM socket emits exactly one datagram (the kernel
// gathers the vector into a single message). Reports false when the
// vectored path is unusable and the caller must fall back to a copy.
//
//xmovie:hotpath
//xmovie:noretain hdr payload
func (v *vecIO) sendVec(hdr, payload []byte) (bool, error) {
	if v.rc == nil {
		return false, nil
	}
	v.iovs[0], v.iovs[1] = vecOf(hdr), vecOf(payload)
	v.niov = 2
	if len(payload) == 0 {
		v.niov = 1
	}
	v.errno = 0
	werr := v.rc.Write(v.writevFn)
	// Drop the references: the kernel has consumed the slices.
	v.iovs[0], v.iovs[1] = syscall.Iovec{}, syscall.Iovec{}
	if werr != nil {
		return false, werr
	}
	if v.errno != 0 {
		return true, v.errno
	}
	return true, nil
}

func (v *vecIO) writev(fd uintptr) bool {
	for {
		_, _, errno := syscall.Syscall(syscall.SYS_WRITEV, fd, uintptr(unsafe.Pointer(&v.iovs[0])), uintptr(v.niov))
		switch errno {
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			// Socket buffer full: let the runtime poller wait for
			// writability, then retry the callback.
			return false
		}
		v.errno = errno
		return true
	}
}

// sendBatch transmits each PacketVec as one datagram, maxMmsg packets per
// sendmmsg(2) call (retrying for packets the kernel did not take in one
// go). Reports false when the batched path is unusable.
//
//xmovie:hotpath
//xmovie:noretain pkts
func (v *vecIO) sendBatch(pkts []PacketVec) (bool, error) {
	if v.rc == nil {
		return false, nil
	}
	for len(pkts) > 0 {
		n := min(len(pkts), maxMmsg)
		for i, p := range pkts[:n] {
			v.iovs[2*i] = vecOf(p.Hdr)
			v.iovs[2*i+1] = vecOf(p.Payload)
			v.msgs[i].hdr.Iovlen = 2
			if len(p.Payload) == 0 {
				v.msgs[i].hdr.Iovlen = 1
			}
		}
		v.npkts, v.sent, v.errno = n, 0, 0
		werr := v.rc.Write(v.sendmmsgFn)
		clear(v.iovs[:2*n])
		if werr != nil {
			return false, werr
		}
		if v.errno != 0 {
			return true, v.errno
		}
		pkts = pkts[n:]
	}
	return true, nil
}

func (v *vecIO) sendmmsg(fd uintptr) bool {
	for v.sent < v.npkts {
		r, _, errno := syscall.Syscall6(sysSENDMMSG, fd,
			uintptr(unsafe.Pointer(&v.msgs[v.sent])), uintptr(v.npkts-v.sent), 0, 0, 0)
		switch {
		case errno == syscall.EINTR:
			continue
		case errno == syscall.EAGAIN:
			return false // wait for writability, retry the remainder
		case errno != 0:
			v.errno = errno
			return true
		}
		v.sent += int(r)
	}
	return true
}

func vecOf(b []byte) syscall.Iovec {
	var v syscall.Iovec
	if len(b) > 0 {
		v.Base = &b[0]
		v.SetLen(len(b))
	}
	return v
}
