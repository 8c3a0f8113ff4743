package batchio

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"
)

// pair builds an unconnected listener and a connected sender socket aimed at
// it, both on loopback.
func pair(t testing.TB) (recv *net.UDPConn, send *net.UDPConn) {
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

// gsoSender is a loopback socket whose sends larger than seg the kernel
// splits into seg-byte datagrams; the test skips where it cannot.
func gsoSender(t testing.TB, seg int) *net.UDPConn {
	t.Helper()
	u, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { u.Close() })
	if err := SetSegmentSize(u, seg); err != nil {
		t.Skipf("no UDP segmentation offload: %v", err)
	}
	return u
}

// groReceiver is a loopback socket with UDP GRO on, read through the
// batched Conn; the test skips where the kernel or platform has neither.
func groReceiver(t testing.TB) (*net.UDPConn, Conn) {
	t.Helper()
	r, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	conn := New(r, ModeAuto)
	if !Batched(conn) {
		t.Skip("no batched receive path on this platform")
	}
	if err := SetGRO(r); err != nil {
		t.Skipf("no UDP generic receive offload: %v", err)
	}
	return r, conn
}

// segments splits a received message into its datagrams by Seg.
func segments(m Message) [][]byte {
	b := m.Buf[:m.N]
	seg := m.Seg
	if seg == 0 {
		seg = len(b)
	}
	var out [][]byte
	for len(b) > 0 {
		n := min(seg, len(b))
		out = append(out, append([]byte(nil), b[:n]...))
		b = b[n:]
	}
	return out
}

// datagrams counts the datagrams in a received message without copying them.
func datagrams(m Message) int {
	if m.Seg == 0 {
		return 1
	}
	return (m.N + m.Seg - 1) / m.Seg
}

// gsoBursts sends, from a segment-offload socket, bursts of k×seg bytes plus
// a short tail to every dst, the same bytes to each; every datagram carries
// its burst and index.
func gsoBursts(t *testing.T, u *net.UDPConn, seg int, ks []int, dsts ...*net.UDPAddr) (datagrams int) {
	t.Helper()
	sender := New(u, ModeAuto)
	for b, k := range ks {
		buf := make([]byte, k*seg+seg/3)
		for i := range buf {
			buf[i] = byte(b*61 + i/seg*7 + i%5)
		}
		var msgs []Message
		for _, dst := range dsts {
			msgs = append(msgs, Message{Buf: buf, Addr: dst})
		}
		if sent, err := sender.SendBatch(msgs); err != nil || sent != len(msgs) {
			t.Fatalf("SendBatch = %d, %v", sent, err)
		}
		datagrams += k + 1
	}
	return datagrams
}

// drainSegments reads want datagrams from conn into bufSize-byte buffers,
// splitting each message by Seg, and counts the messages that reported Seg.
func drainSegments(t *testing.T, conn Conn, raw *net.UDPConn, want, bufSize int) (got [][]byte, withSeg int) {
	t.Helper()
	msgs := make([]Message, 4)
	for i := range msgs {
		msgs[i].Buf = make([]byte, bufSize)
	}
	_ = raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	for len(got) < want {
		n, err := conn.RecvBatch(msgs)
		if err != nil {
			t.Fatalf("after %d/%d datagrams: %v", len(got), want, err)
		}
		for i := 0; i < n; i++ {
			if msgs[i].Seg != 0 {
				withSeg++
			}
			got = append(got, segments(msgs[i])...)
		}
	}
	return got, withSeg
}

// TestGROMatchesPlainReceive: a GSO sender's bursts, read by a GRO socket
// and split by Seg, are the datagrams a plain socket reads from the same
// sends, in the same order — and the GRO socket did get them coalesced.
func TestGROMatchesPlainReceive(t *testing.T) {
	const seg = 1200
	u := gsoSender(t, seg)
	gro, groConn := groReceiver(t)
	plain, _ := pair(t)
	want := gsoBursts(t, u, seg, []int{1, 7, 50, 3, 20},
		gro.LocalAddr().(*net.UDPAddr), plain.LocalAddr().(*net.UDPAddr))

	got, coalesced := drainSegments(t, groConn, gro, want, 64<<10)
	ref, _ := drainSegments(t, New(plain, ModeAuto), plain, want, 2048)
	if len(got) != len(ref) {
		t.Fatalf("GRO read %d datagrams, plain %d", len(got), len(ref))
	}
	for i := range ref {
		if !bytes.Equal(got[i], ref[i]) {
			t.Fatalf("datagram %d: GRO read %d bytes %x…, plain %d bytes %x…",
				i, len(got[i]), got[i][:4], len(ref[i]), ref[i][:4])
		}
	}
	if coalesced == 0 {
		t.Error("no GRO receive reported a segment size")
	}
}

// TestSegOnlyWithGRO: without UDP GRO on the socket, neither path reports
// Seg, even for a GSO sender's bursts.
func TestSegOnlyWithGRO(t *testing.T) {
	const seg = 1200
	for name, mode := range modes(t) {
		t.Run(name, func(t *testing.T) {
			u := gsoSender(t, seg)
			r, _ := pair(t)
			want := gsoBursts(t, u, seg, []int{5, 9}, r.LocalAddr().(*net.UDPAddr))
			if _, withSeg := drainSegments(t, New(r, mode), r, want, 2048); withSeg != 0 {
				t.Errorf("%d messages reported Seg without GRO", withSeg)
			}
		})
	}
}

// TestRecvBatchGROZeroAllocs: a batched receive with control buffers — GSO
// bursts coalesced on a GRO socket — allocates nothing in the steady state.
func TestRecvBatchGROZeroAllocs(t *testing.T) {
	const seg = 1200
	u := gsoSender(t, seg)
	r, conn := groReceiver(t)
	sender := New(u, ModeAuto)
	out := []Message{{Buf: make([]byte, 20*seg), Addr: r.LocalAddr().(*net.UDPAddr)}}
	in := []Message{{Buf: make([]byte, 64<<10)}, {Buf: make([]byte, 64<<10)}}
	_ = r.SetReadDeadline(time.Now().Add(10 * time.Second))
	var fail error
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := sender.SendBatch(out); err != nil {
			fail = err
			return
		}
		for got := 0; got < len(out[0].Buf); {
			n, err := conn.RecvBatch(in)
			if err != nil {
				fail = err
				return
			}
			for i := 0; i < n; i++ {
				got += in[i].N
			}
		}
	})
	if fail != nil {
		t.Fatal(fail)
	}
	if allocs != 0 {
		t.Errorf("send + GRO receive of one burst: %.1f allocs, want 0", allocs)
	}
}
