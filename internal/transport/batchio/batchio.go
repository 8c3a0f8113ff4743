// Package batchio provides batched datagram I/O over *net.UDPConn: many
// messages per syscall via sendmmsg/recvmmsg where the platform has them
// (Linux), and a portable one-message-per-syscall fallback everywhere else.
//
// The two paths are byte-identical on the wire: a Conn only changes how many
// kernel crossings a batch costs, never what is sent. The transport's
// batched-vs-fallback property test pins that equivalence, which is what
// lets CI on any platform validate the logic the Linux fast path ships.
//
// Conn methods are safe for concurrent use: sends and receives hold
// separate locks, so one goroutine may send on a socket while another blocks
// receiving on it.
package batchio

import (
	"errors"
	"net"
)

// ErrNoSegmentOffload reports that kernel UDP segmentation offload is not
// available on this platform; senders fall back to one datagram per message.
var ErrNoSegmentOffload = errors.New("batchio: UDP segmentation offload unsupported on this platform")

// Message is one datagram in a batch. The same struct is used for both
// directions so callers can keep one preallocated slice per loop.
type Message struct {
	// Buf is the datagram payload to send, or the receive buffer (filled to
	// capacity len(Buf); the received size lands in N).
	Buf []byte
	// Addr is the destination for sends on unconnected sockets (nil sends on
	// the connected peer). On receive, a non-nil Addr is filled in place —
	// its IP backing array is reused, so provide cap ≥ 16 — and a nil Addr
	// discards the peer (connected sockets).
	Addr *net.UDPAddr
	// N is the number of bytes received into Buf. Send paths leave it 0.
	N int
	// Seg is, on receive from a socket with UDP GRO (SetGRO), the size of
	// the datagrams the kernel coalesced into Buf[:N]: each Seg bytes are
	// one datagram, the last possibly shorter. Zero means Buf[:N] is one
	// datagram. The fallback path never sets it; sends ignore it.
	Seg int
}

// Conn is batched datagram I/O bound to one socket.
type Conn interface {
	// SendBatch writes msgs in order and reports how many were handed to the
	// kernel. A short count with a nil error cannot happen: sent < len(msgs)
	// implies err != nil, and the remaining messages were not sent.
	SendBatch(msgs []Message) (sent int, err error)
	// RecvBatch blocks until at least one datagram arrives (honouring the
	// socket's read deadline), fills msgs[0:n] and reports n. On Linux,
	// datagrams the kernel already holds are returned even once the deadline
	// has passed, so a caller that comes back late still drains them. Errors
	// are the socket's: deadline expiry (on Linux, with nothing queued)
	// satisfies net.Error.Timeout, a closed socket reports use-of-closed.
	RecvBatch(msgs []Message) (n int, err error)
}

// Mode selects the syscall strategy.
type Mode int

const (
	// ModeAuto uses the platform's vectored syscalls when available.
	ModeAuto Mode = iota
	// ModeFallback forces one message per syscall — the portable path, kept
	// selectable on every platform so the equivalence property is testable
	// where the fast path exists.
	ModeFallback
)

// New wraps c in a batched Conn using the given mode.
func New(c *net.UDPConn, mode Mode) Conn {
	if mode == ModeFallback {
		return &oneConn{c: c}
	}
	return newPlatform(c)
}

// Batched reports whether conn uses vectored syscalls (false: fallback).
func Batched(conn Conn) bool {
	_, one := conn.(*oneConn)
	return !one
}
