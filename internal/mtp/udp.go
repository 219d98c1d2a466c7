package mtp

import (
	"fmt"
	"net"
	"net/netip"
)

// UDPConn adapts a connected UDP socket to PacketConn, the configuration
// the paper uses for MTP ("we run the XMovie transmission protocol MTP
// directly on top of UDP, IP and FDDI", §3). It also implements VecConn
// and BatchConn: on Linux a vectored send is writev with two iovecs (one
// datagram) and a batch is one sendmmsg(2) call; elsewhere both degrade to
// the copying fallback.
//
// A UDPConn has a single sender: Send, SendVec and SendBatch share
// per-connection scratch (the iovec and mmsghdr arrays the kernel reads),
// so one goroutine sends at a time. The stream sender keeps to this by
// construction — its frames, EOS markers and fallback sends all leave from
// the goroutine running StreamSender.Run. Likewise one goroutine receives:
// Recv and TryRecv share the receive buffer.
type UDPConn struct {
	c    *net.UDPConn
	buf  []byte
	sbuf []byte // scratch for the non-vectored SendVec fallback
	vec  vecIO  // vectored/batched send state (single sender)
	rx   recvIO // non-blocking receive state (single receiver)
}

var (
	_ PacketConn = (*UDPConn)(nil)
	_ VecConn    = (*UDPConn)(nil)
	_ BatchConn  = (*UDPConn)(nil)
)

// NewUDPConn wraps an already connected UDP socket.
func NewUDPConn(c *net.UDPConn) *UDPConn {
	u := &UDPConn{c: c, buf: make([]byte, HeaderSize+MaxPayload)}
	u.vec.init(c)
	u.rx.init(c, u.buf)
	return u
}

// DialUDP opens a connected UDP socket to addr.
func DialUDP(addr string) (*UDPConn, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("mtp: %w", err)
	}
	c, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		return nil, fmt.Errorf("mtp: %w", err)
	}
	return NewUDPConn(c), nil
}

// ListenUDP binds a UDP socket on addr (use port 0 for ephemeral) and
// returns it unconnected; the first peer to send adopts the session.
func ListenUDP(addr string) (*UDPListener, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("mtp: %w", err)
	}
	c, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("mtp: %w", err)
	}
	return &UDPListener{c: c, buf: make([]byte, HeaderSize+MaxPayload)}, nil
}

// Send implements PacketConn.
//
//xmovie:noretain p
func (u *UDPConn) Send(p []byte) error {
	_, err := u.c.Write(p)
	return err
}

// SendVec implements VecConn: hdr+payload leave as one datagram, gathered
// by the kernel (two iovecs) on Linux so neither slice is copied in user
// space. Both slices are fully consumed before the call returns.
//
//xmovie:noretain hdr payload
func (u *UDPConn) SendVec(hdr, payload []byte) error {
	if ok, err := u.vec.sendVec(hdr, payload); ok {
		return err
	}
	var err error
	u.sbuf, err = sendVecFallback(u, u.sbuf, hdr, payload)
	return err
}

// SendBatch implements BatchConn: one sendmmsg(2) call transmits the whole
// batch on Linux; elsewhere each packet is sent individually.
//
//xmovie:noretain pkts
func (u *UDPConn) SendBatch(pkts []PacketVec) error {
	if ok, err := u.vec.sendBatch(pkts); ok {
		return err
	}
	for _, p := range pkts {
		if err := u.SendVec(p.Hdr, p.Payload); err != nil {
			return err
		}
	}
	return nil
}

// Recv implements PacketConn. The result aliases the conn's receive buffer
// and is valid until the next Recv.
func (u *UDPConn) Recv() ([]byte, error) {
	n, err := u.c.Read(u.buf)
	if err != nil {
		return nil, err
	}
	return u.buf[:n], nil
}

// TryRecv implements TryRecver: a genuinely non-blocking datagram read
// (a single read on the non-blocking socket on unix; a one-millisecond
// read deadline elsewhere), so stream senders can poll for receiver
// feedback between frames without a reader goroutine. The result aliases
// the conn's receive buffer.
func (u *UDPConn) TryRecv() ([]byte, bool) {
	n, ok := u.rx.tryRecv()
	if !ok || n == 0 {
		return nil, false
	}
	return u.buf[:n], true
}

// Close releases the socket.
func (u *UDPConn) Close() error { return u.c.Close() }

// UDPListener receives a stream on a bound socket, replying to the most
// recent sender (sufficient for one stream per port, as MCAM allocates).
type UDPListener struct {
	c    *net.UDPConn
	buf  []byte
	sbuf []byte
	peer netip.AddrPort // zero until the first datagram arrives
}

var (
	_ PacketConn = (*UDPListener)(nil)
	_ VecConn    = (*UDPListener)(nil)
)

// Addr returns the bound address.
func (u *UDPListener) Addr() string { return u.c.LocalAddr().String() }

// Recv implements PacketConn, learning the peer from inbound traffic. The
// result aliases the conn's receive buffer and is valid until the next Recv.
func (u *UDPListener) Recv() ([]byte, error) {
	n, peer, err := u.c.ReadFromUDPAddrPort(u.buf)
	if err != nil {
		return nil, err
	}
	u.peer = peer
	return u.buf[:n], nil
}

// Send implements PacketConn toward the learned peer.
//
//xmovie:noretain p
func (u *UDPListener) Send(p []byte) error {
	if !u.peer.IsValid() {
		return fmt.Errorf("mtp: no peer learned yet")
	}
	_, err := u.c.WriteToUDPAddrPort(p, u.peer)
	return err
}

// SendVec implements VecConn toward the learned peer. An unconnected
// socket needs the destination per message, so the slices are gathered
// into a conn-owned scratch buffer (consumed before return, per the
// contract) rather than handed to the kernel as iovecs; the listener is
// the low-rate feedback direction, not the media fan-out path.
//
//xmovie:noretain hdr payload
func (u *UDPListener) SendVec(hdr, payload []byte) error {
	if !u.peer.IsValid() {
		return fmt.Errorf("mtp: no peer learned yet")
	}
	var err error
	u.sbuf, err = sendVecFallback(u, u.sbuf, hdr, payload)
	return err
}

// Close releases the socket.
func (u *UDPListener) Close() error { return u.c.Close() }
