package batchio

import (
	"net"
	"testing"
	"time"
)

// benchSender builds an unconnected socket sending 1200-byte datagrams at a
// loopback sink port with no reader — the kernel drops them after the full
// send path, the standard harness for measuring wire-send cost.
func benchSender(b *testing.B, mode Mode, batch, segs int) ([]Message, Conn, int) {
	b.Helper()
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { sink.Close() })
	s, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	_ = s.SetWriteBuffer(8 << 20)
	if segs > 1 {
		if err := SetSegmentSize(s, 1200); err != nil {
			b.Skipf("no UDP segmentation offload: %v", err)
		}
	}
	dst := sink.LocalAddr().(*net.UDPAddr)
	msgs := make([]Message, batch)
	payload := make([]byte, 1200*segs)
	for i := range msgs {
		msgs[i].Buf = payload
		msgs[i].Addr = dst
	}
	return msgs, New(s, mode), batch * segs
}

// BenchmarkWireSend measures datagrams/sec through each syscall strategy;
// per-op cost is per datagram, not per batch. gso-50x8 is the server's
// steady-state shape: 8 sessions' super-buffers of 50 segments in one
// sendmmsg.
func BenchmarkWireSend(b *testing.B) {
	for _, bc := range []struct {
		name        string
		mode        Mode
		batch, segs int
	}{
		{"gso-50x8", ModeAuto, 8, 50},
		{"batched-64", ModeAuto, 64, 1},
		{"fallback-1", ModeFallback, 1, 1},
	} {
		b.Run(bc.name, func(b *testing.B) {
			msgs, conn, pkts := benchSender(b, bc.mode, bc.batch, bc.segs)
			b.SetBytes(1200)
			b.ResetTimer()
			for n := 0; n < b.N; n += pkts {
				if _, err := conn.SendBatch(msgs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRecvCoalesced measures what a GSO sender's datagram costs the
// receiving side: each iteration is one send of 50 × 1200 bytes, read back
// either by recvmmsg into 16 × 2 KiB buffers (plain: the kernel splits the
// burst on delivery) or, with UDP GRO, into 2 × 64 KiB buffers split by Seg
// (gro). The ns/datagram metric covers the send and the receive.
func BenchmarkRecvCoalesced(b *testing.B) {
	const seg, segs = 1200, 50
	for _, bc := range []struct {
		name      string
		gro       bool
		batch, sz int
	}{
		{"plain", false, 16, 2048},
		{"gro", true, 2, 64 << 10},
	} {
		b.Run(bc.name, func(b *testing.B) {
			u := gsoSender(b, seg)
			var r *net.UDPConn
			var conn Conn
			if bc.gro {
				r, conn = groReceiver(b)
			} else {
				r, _ = pair(b)
				conn = New(r, ModeAuto)
			}
			_ = r.SetReadBuffer(4 << 20)
			sender := New(u, ModeAuto)
			out := []Message{{Buf: make([]byte, segs*seg), Addr: r.LocalAddr().(*net.UDPAddr)}}
			in := make([]Message, bc.batch)
			for i := range in {
				in[i].Buf = make([]byte, bc.sz)
			}
			_ = r.SetReadDeadline(time.Now().Add(time.Minute))
			b.SetBytes(segs * seg)
			b.ResetTimer()
			for range b.N {
				if _, err := sender.SendBatch(out); err != nil {
					b.Fatal(err)
				}
				for got := 0; got < segs; {
					n, err := conn.RecvBatch(in)
					if err != nil {
						b.Fatal(err)
					}
					for i := range in[:n] {
						got += datagrams(in[i])
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*segs), "ns/datagram")
		})
	}
}
