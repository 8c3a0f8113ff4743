package batchio

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"
)

// pair builds an unconnected listener and a connected sender socket aimed at
// it, both on loopback.
func pair(t *testing.T) (recv *net.UDPConn, send *net.UDPConn) {
	t.Helper()
	r, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	s, err := net.DialUDP("udp", nil, r.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return r, s
}

// recvMsgs builds a receive batch with peer-addr storage (16-byte backing).
func recvMsgs(n int) []Message {
	msgs := make([]Message, n)
	for i := range msgs {
		msgs[i].Buf = make([]byte, 2048)
		msgs[i].Addr = &net.UDPAddr{IP: make(net.IP, 16)}
	}
	return msgs
}

// drain reads from conn until want datagrams arrived or the deadline passed,
// returning the payloads in arrival order.
func drain(t *testing.T, conn Conn, raw *net.UDPConn, want int) [][]byte {
	t.Helper()
	var got [][]byte
	msgs := recvMsgs(8)
	deadline := time.Now().Add(5 * time.Second)
	for len(got) < want {
		_ = raw.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
		n, err := conn.RecvBatch(msgs)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				if time.Now().After(deadline) {
					t.Fatalf("only %d/%d datagrams arrived", len(got), want)
				}
				continue
			}
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			got = append(got, append([]byte(nil), msgs[i].Buf[:msgs[i].N]...))
		}
	}
	return got
}

func modes(t *testing.T) map[string]Mode {
	return map[string]Mode{"auto": ModeAuto, "fallback": ModeFallback}
}

// TestSendRecvRoundTrip: every mode combination moves the same bytes, in
// order, over loopback — including batches longer than BatchSize.
func TestSendRecvRoundTrip(t *testing.T) {
	for sname, smode := range modes(t) {
		for rname, rmode := range modes(t) {
			t.Run(fmt.Sprintf("send=%s/recv=%s", sname, rname), func(t *testing.T) {
				r, s := pair(t)
				sender := New(s, smode)
				receiver := New(r, rmode)

				const count = BatchSize + 17 // forces a multi-syscall batch
				msgs := make([]Message, count)
				for i := range msgs {
					msgs[i].Buf = []byte(fmt.Sprintf("datagram-%03d", i))
				}
				sent, err := sender.SendBatch(msgs)
				if err != nil || sent != count {
					t.Fatalf("SendBatch = %d, %v; want %d, nil", sent, err, count)
				}
				got := drain(t, receiver, r, count)
				for i, g := range got {
					want := fmt.Sprintf("datagram-%03d", i)
					if string(g) != want {
						t.Fatalf("datagram %d = %q, want %q", i, g, want)
					}
				}
			})
		}
	}
}

// TestSendToAddr: unconnected sockets route per-message via Addr, and the
// receiver reports the peer in caller-provided storage without allocating a
// fresh UDPAddr.
func TestSendToAddr(t *testing.T) {
	for name, mode := range modes(t) {
		t.Run(name, func(t *testing.T) {
			r, _ := pair(t)
			u, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
			if err != nil {
				t.Fatal(err)
			}
			defer u.Close()
			sender := New(u, mode)
			receiver := New(r, mode)

			dst := r.LocalAddr().(*net.UDPAddr)
			msgs := []Message{
				{Buf: []byte("to-a"), Addr: dst},
				{Buf: []byte("to-b"), Addr: dst},
			}
			if sent, err := sender.SendBatch(msgs); err != nil || sent != 2 {
				t.Fatalf("SendBatch = %d, %v", sent, err)
			}

			rmsgs := recvMsgs(4)
			addrBefore := rmsgs[0].Addr
			_ = r.SetReadDeadline(time.Now().Add(2 * time.Second))
			n, err := receiver.RecvBatch(rmsgs)
			if err != nil || n == 0 {
				t.Fatalf("RecvBatch = %d, %v", n, err)
			}
			if rmsgs[0].Addr != addrBefore {
				t.Error("RecvBatch replaced the caller's addr storage instead of filling it")
			}
			wantPort := u.LocalAddr().(*net.UDPAddr).Port
			if rmsgs[0].Addr.Port != wantPort {
				t.Errorf("peer port = %d, want %d", rmsgs[0].Addr.Port, wantPort)
			}
			if !rmsgs[0].Addr.IP.Equal(net.IPv4(127, 0, 0, 1)) {
				t.Errorf("peer IP = %v, want 127.0.0.1", rmsgs[0].Addr.IP)
			}
		})
	}
}

// TestRecvDeadline: an expired read deadline surfaces as a net.Error with
// Timeout() — the contract the transport read loops rely on to poll.
func TestRecvDeadline(t *testing.T) {
	for name, mode := range modes(t) {
		t.Run(name, func(t *testing.T) {
			r, _ := pair(t)
			receiver := New(r, mode)
			_ = r.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
			_, err := receiver.RecvBatch(recvMsgs(1))
			var ne net.Error
			if !errors.As(err, &ne) || !ne.Timeout() {
				t.Fatalf("err = %v, want net.Error with Timeout()", err)
			}
		})
	}
}

// TestRecvAfterDeadline: datagrams the kernel already holds are returned
// even once the read deadline has passed — a late caller drains its queue
// instead of timing out over it — and only an empty queue times out.
func TestRecvAfterDeadline(t *testing.T) {
	for name, mode := range modes(t) {
		t.Run(name, func(t *testing.T) {
			r, s := pair(t)
			receiver := New(r, mode)
			if _, err := s.Write([]byte("queued")); err != nil {
				t.Fatal(err)
			}
			_ = r.SetReadDeadline(time.Now().Add(-time.Second))
			msgs := recvMsgs(1)
			for attempt := 0; ; attempt++ {
				n, err := receiver.RecvBatch(msgs)
				if err == nil {
					if got := string(msgs[0].Buf[:msgs[0].N]); n != 1 || got != "queued" {
						t.Fatalf("RecvBatch = %d datagrams, %q", n, got)
					}
					break
				}
				if attempt == 100 {
					t.Fatalf("RecvBatch with a datagram queued and the deadline passed = %v", err)
				}
				time.Sleep(time.Millisecond) // loopback may not have queued it yet
			}
			if port := s.LocalAddr().(*net.UDPAddr).Port; msgs[0].Addr.Port != port {
				t.Errorf("peer port = %d, want %d", msgs[0].Addr.Port, port)
			}
			_, err := receiver.RecvBatch(msgs)
			var ne net.Error
			if !errors.As(err, &ne) || !ne.Timeout() {
				t.Fatalf("RecvBatch on an empty queue past the deadline = %v, want a timeout", err)
			}
		})
	}
}

// TestRecvClosed: a closed socket errors out instead of hanging.
func TestRecvClosed(t *testing.T) {
	for name, mode := range modes(t) {
		t.Run(name, func(t *testing.T) {
			r, _ := pair(t)
			receiver := New(r, mode)
			r.Close()
			if _, err := receiver.RecvBatch(recvMsgs(1)); err == nil {
				t.Fatal("RecvBatch on a closed socket returned nil error")
			}
		})
	}
}

// TestBatchedReportsPath: on Linux ModeAuto yields the vectored path and
// ModeFallback never does; elsewhere both report fallback.
func TestBatchedReportsPath(t *testing.T) {
	r, _ := pair(t)
	if Batched(New(r, ModeFallback)) {
		t.Error("ModeFallback reported as batched")
	}
	// ModeAuto's answer is platform-dependent; just exercise it.
	_ = Batched(New(r, ModeAuto))
}

// TestSegmentOffloadRoundTrip: with UDP_SEGMENT set, one message carrying
// k×size bytes arrives as k wire datagrams of size bytes each, bytes intact
// — the property the pacing wheel's super-buffers rely on. Skipped where the
// kernel lacks the offload.
func TestSegmentOffloadRoundTrip(t *testing.T) {
	r, _ := pair(t)
	u, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	const seg = 1200
	if err := SetSegmentSize(u, seg); err != nil {
		t.Skipf("no UDP segmentation offload: %v", err)
	}
	sender := New(u, ModeAuto)
	receiver := New(r, ModeAuto)

	const k = 7
	buf := make([]byte, k*seg)
	for i := range buf {
		buf[i] = byte(i/seg + 1) // segment index tags every byte
	}
	msgs := []Message{{Buf: buf, Addr: r.LocalAddr().(*net.UDPAddr)}}
	if sent, err := sender.SendBatch(msgs); err != nil || sent != 1 {
		t.Fatalf("SendBatch = %d, %v", sent, err)
	}
	got := drain(t, receiver, r, k)
	for i, g := range got {
		if len(g) != seg {
			t.Fatalf("datagram %d: %d bytes, want %d", i, len(g), seg)
		}
		for _, c := range g {
			if c != byte(i+1) {
				t.Fatalf("datagram %d carries byte %d, want %d", i, c, i+1)
			}
		}
	}
	if MaxSegments(seg) < 50 {
		t.Errorf("MaxSegments(%d) = %d, want ≥50", seg, MaxSegments(seg))
	}
}

// TestEmptyBatches: zero-length batches are no-ops.
func TestEmptyBatches(t *testing.T) {
	r, _ := pair(t)
	c := New(r, ModeAuto)
	if n, err := c.SendBatch(nil); n != 0 || err != nil {
		t.Errorf("SendBatch(nil) = %d, %v", n, err)
	}
	if n, err := c.RecvBatch(nil); n != 0 || err != nil {
		t.Errorf("RecvBatch(nil) = %d, %v", n, err)
	}
}
