//go:build linux && (amd64 || arm64)

package batchio

import (
	"net"
	"syscall"
	"testing"
	"time"
)

// TestGROTruncatedBurst: a coalesced burst larger than its receive buffer
// comes back cut to the whole segments that fit, never as one datagram of
// the buffer's length — and the kernel did flag it MSG_TRUNC.
func TestGROTruncatedBurst(t *testing.T) {
	const seg = 1200
	u := gsoSender(t, seg)
	r, conn := groReceiver(t)
	gsoBursts(t, u, seg, []int{7}, r.LocalAddr().(*net.UDPAddr))

	msgs := []Message{{Buf: make([]byte, 3000)}}
	_ = r.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := conn.RecvBatch(msgs)
	if err != nil || n != 1 {
		t.Fatalf("RecvBatch = %d, %v", n, err)
	}
	if flags := conn.(*mmsgConn).rhdrs[0].Hdr.Flags; flags&syscall.MSG_TRUNC == 0 {
		t.Fatalf("msg_flags = %#x: the kernel did not truncate a 7-segment burst into 3000 bytes", flags)
	}
	if m := msgs[0]; m.Seg != seg || m.N != 2*seg {
		t.Errorf("truncated burst: N = %d, Seg = %d; want N = %d, Seg = %d", m.N, m.Seg, 2*seg, seg)
	}
}
