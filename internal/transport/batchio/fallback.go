package batchio

import (
	"errors"
	"net"
	"os"
)

// oneConn is the portable one-message-per-syscall path. It exists on every
// platform (forced via ModeFallback) so the batched path can be differential-
// tested against it.
type oneConn struct {
	c *net.UDPConn
}

// SendBatch implements Conn with one write syscall per message.
func (o *oneConn) SendBatch(msgs []Message) (int, error) {
	for i := range msgs {
		var err error
		if msgs[i].Addr != nil {
			_, err = o.c.WriteToUDP(msgs[i].Buf, msgs[i].Addr)
		} else {
			_, err = o.c.Write(msgs[i].Buf)
		}
		if err != nil {
			return i, err
		}
	}
	return len(msgs), nil
}

// RecvBatch implements Conn with a single blocking read: the fallback
// delivers batches of one.
func (o *oneConn) RecvBatch(msgs []Message) (int, error) {
	if len(msgs) == 0 {
		return 0, nil
	}
	m := &msgs[0]
	n, ap, err := o.c.ReadFromUDPAddrPort(m.Buf)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		n, ap, err = recvQueued(o.c, m.Buf, err)
	}
	if err != nil {
		return 0, err
	}
	m.N = n
	if m.Addr != nil {
		fillFromAddrPort(m.Addr, ap)
	}
	return 1, nil
}
