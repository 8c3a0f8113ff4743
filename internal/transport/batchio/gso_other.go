//go:build !(linux && (amd64 || arm64))

package batchio

import "net"

// SetSegmentSize is unavailable off Linux; callers fall back to one datagram
// per message.
func SetSegmentSize(*net.UDPConn, int) error { return ErrNoSegmentOffload }

// SetGRO is unavailable off Linux; receivers take one datagram per message.
func SetGRO(*net.UDPConn) error { return ErrNoSegmentOffload }

// MaxSegments mirrors the Linux helper; without offload a message always
// carries exactly one segment.
func MaxSegments(int) int { return 1 }
