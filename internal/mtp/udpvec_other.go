//go:build !linux || !(amd64 || arm64)

package mtp

import "net"

// vecIO has no vectored UDP path off Linux: callers fall back to the
// concatenate-and-Send copy and a per-packet loop.
type vecIO struct{}

func (v *vecIO) init(c *net.UDPConn) {}

func (v *vecIO) sendVec(hdr, payload []byte) (bool, error) { return false, nil }

func (v *vecIO) sendBatch(pkts []PacketVec) (bool, error) { return false, nil }
