//go:build !linux

package batchio

import (
	"net"
	"net/netip"
)

// recvQueued has no non-blocking read off Linux: a fallback receive whose
// deadline passed reports the timeout even with datagrams queued.
func recvQueued(_ *net.UDPConn, _ []byte, timeout error) (int, netip.AddrPort, error) {
	return 0, netip.AddrPort{}, timeout
}
