//go:build linux && (amd64 || arm64)

package batchio

import (
	"net"
	"os"
	"syscall"
)

// udpSegment and udpGRO are the UDP_SEGMENT and UDP_GRO socket options
// (linux/udp.h); they postdate the stdlib syscall table freeze. UDP_GRO is
// also the type of the control message carrying a coalesced receive's
// segment size.
const (
	udpSegment = 103
	udpGRO     = 104
)

// SetSegmentSize enables kernel UDP segmentation offload on c: every send
// larger than size is split by the kernel into size-byte wire datagrams
// (plus a short tail), so one syscall — and one traversal of most of the
// stack — carries dozens of packets. Sends at or below size are unaffected,
// which keeps sub-segment control messages on the same socket intact.
//
// Callers must treat an error as "no offload" and fall back to one datagram
// per message; pre-4.18 kernels reject the option.
func SetSegmentSize(c *net.UDPConn, size int) error {
	return setUDPOption(c, udpSegment, size, "setsockopt(UDP_SEGMENT)")
}

// SetGRO enables UDP generic receive offload on c: datagrams of one flow
// that arrive together — a GSO sender's burst, or packets a NIC coalesced —
// are handed up as one message, and the batched Conn's RecvBatch reports
// their size in Message.Seg. Only a batched Conn reads that size, so a
// socket read through the fallback must not take GRO: it would see each
// burst as one datagram.
//
// Callers must treat an error as "no offload" and keep one datagram per
// message; pre-5.0 kernels reject the option.
func SetGRO(c *net.UDPConn) error {
	return setUDPOption(c, udpGRO, 1, "setsockopt(UDP_GRO)")
}

// setUDPOption sets the IPPROTO_UDP-level integer option opt on c.
func setUDPOption(c *net.UDPConn, opt, value int, op string) error {
	rc, err := c.SyscallConn()
	if err != nil {
		return err
	}
	var serr error
	cerr := rc.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.IPPROTO_UDP, opt, value)
	})
	if cerr != nil {
		return cerr
	}
	if serr != nil {
		return os.NewSyscallError(op, serr)
	}
	return nil
}

// MaxSegments is the most size-byte segments one send may carry: the UDP
// payload ceiling (65507 bytes) divided by the segment size.
func MaxSegments(size int) int {
	const maxUDPPayload = 65507
	if size <= 0 {
		return 1
	}
	n := maxUDPPayload / size
	if n < 1 {
		return 1
	}
	return n
}
