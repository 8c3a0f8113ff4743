package batchio

import (
	"net"
	"net/netip"
	"syscall"
)

// recvQueued reads one datagram the kernel already holds without waiting,
// for a fallback receive whose deadline passed before it could read; with
// nothing queued it returns timeout, the error the read failed with.
func recvQueued(c *net.UDPConn, buf []byte, timeout error) (int, netip.AddrPort, error) {
	rc, err := c.SyscallConn()
	if err != nil {
		return 0, netip.AddrPort{}, timeout
	}
	var (
		n    int
		from syscall.Sockaddr
		rerr error
	)
	if err := rc.Control(func(fd uintptr) {
		n, from, rerr = syscall.Recvfrom(int(fd), buf, syscall.MSG_DONTWAIT)
	}); err != nil || rerr != nil {
		return 0, netip.AddrPort{}, timeout
	}
	switch sa := from.(type) {
	case *syscall.SockaddrInet4:
		return n, netip.AddrPortFrom(netip.AddrFrom4(sa.Addr), uint16(sa.Port)), nil
	case *syscall.SockaddrInet6:
		a := netip.AddrFrom16(sa.Addr)
		if sa.ZoneId != 0 {
			if ifi, err := net.InterfaceByIndex(int(sa.ZoneId)); err == nil {
				a = a.WithZone(ifi.Name)
			}
		}
		return n, netip.AddrPortFrom(a, uint16(sa.Port)), nil
	}
	return n, netip.AddrPort{}, nil
}
