package transport

import (
	"context"
	"math"
	"math/rand"
	"net"
	"testing"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/core"
	"github.com/mobilebandwidth/swiftest/internal/gmm"
	"github.com/mobilebandwidth/swiftest/internal/wire"
)

// TestServerSurvivesGarbage floods the server with malformed datagrams of
// every size and then confirms it still answers pings.
func TestServerSurvivesGarbage(t *testing.T) {
	s := startServer(t, ServerConfig{})
	conn, err := net.Dial("udp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 1500)
	for i := 0; i < 500; i++ {
		n := rng.Intn(len(buf)) + 1
		rng.Read(buf[:n])
		if _, err := conn.Write(buf[:n]); err != nil {
			t.Fatal(err)
		}
	}
	// Valid magic but truncated bodies and unknown types, under both
	// version bytes.
	for _, ver := range []byte{wire.Version, wire.Version2} {
		for _, typ := range []byte{0, 1, 2, 3, 8, 9, 11, 14, 18, 19, 20, 21, 200} {
			if _, err := conn.Write([]byte{0x57, 0x54, ver, typ}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := PingServerContext(context.Background(), s.Addr().String(), 2, time.Second); err != nil {
		t.Fatalf("server unresponsive after garbage: %v", err)
	}
}

// TestIdleSessionReaped verifies that a session whose client vanishes
// without a Bye is cleaned up by the idle timeout, and not before.
func TestIdleSessionReaped(t *testing.T) {
	s, _ := stepServer(t, ServerConfig{UplinkMbps: 10, IdleTimeout: 300 * time.Millisecond})
	open := identityBase
	stepOpen(t, s, open, 42, testPeer(0), wire.KbpsFromMbps(1), 0)
	// The client is gone; no Bye will ever arrive.
	now := stepUntil(s, open, open.Add(300*time.Millisecond))
	if n := s.ActiveSessions(); n != 1 {
		t.Fatalf("sessions = %d at the idle timeout, want 1", n)
	}
	s.step(now.Add(paceInterval), nil)
	if n := s.ActiveSessions(); n != 0 {
		t.Errorf("sessions = %d after idle timeout, want 0", n)
	}
}

// TestClientSurvivesServerDeath kills the server mid-test: the engine must
// terminate at its deadline with whatever it observed, not hang.
func TestClientSurvivesServerDeath(t *testing.T) {
	s, err := NewServer("127.0.0.1:0", ServerConfig{UplinkMbps: 50})
	if err != nil {
		t.Fatal(err)
	}
	pool := &ServerPool{Servers: []PoolServer{{Addr: s.Addr().String(), UplinkMbps: 50}}}
	probe, err := NewUDPProbeContext(context.Background(), pool, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Finish(0, 0)

	model := gmm.MustNew(gmm.Component{Weight: 1, Mu: 10, Sigma: 2})
	// Kill the server shortly after the test starts.
	go func() {
		time.Sleep(300 * time.Millisecond)
		s.Close()
	}()
	start := time.Now()
	res, err := core.RunContext(context.Background(), probe, core.Config{Model: model, MaxDuration: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 4*time.Second {
		t.Fatalf("engine hung for %v after server death", elapsed)
	}
	// The trailing window is all-zero after the server died; the result
	// reflects that rather than inventing bandwidth.
	if res.Bandwidth > 15 {
		t.Errorf("bandwidth = %.1f after server death", res.Bandwidth)
	}
}

// TestRate2ReorderingIgnoresStale delivers Rate2 updates out of order and
// confirms the newest seq wins.
func TestRate2ReorderingIgnoresStale(t *testing.T) {
	s, sink := stepServer(t, ServerConfig{UplinkMbps: 100})
	peer := testPeer(0)
	now := identityBase
	stepOpen(t, s, now, 7, peer, 0, 0)

	// Newest first (seq 3, 20 Mbps), then a stale one (seq 2, 90 Mbps).
	rs3 := wire.Rate2{SessionID: 7, RateKbps: wire.KbpsFromMbps(20), Seq: 3}
	rs2 := wire.Rate2{SessionID: 7, RateKbps: wire.KbpsFromMbps(90), Seq: 2}
	s.step(now, from(peer, rs3.AppendTo(nil)))
	now = stepUntil(s, now, now.Add(20*time.Millisecond))
	s.step(now, from(peer, rs2.AppendTo(nil)))

	// Measure the paced rate for half a second; it must track 20, not 90.
	now = stepUntil(s, now, now.Add(100*time.Millisecond))
	sink.take()
	stepUntil(s, now, now.Add(500*time.Millisecond))
	bytes := count(sink.take(), peer, wire.TypeData2) * DatagramSize
	gotMbps := float64(bytes) * 8 / 0.5 / 1e6
	if gotMbps > 40 {
		t.Errorf("stale rate update won: measured %.1f Mbps, want ≈20", gotMbps)
	}
	if math.Abs(gotMbps-20) > 0.5 {
		t.Errorf("paced %.2f Mbps on a scripted clock, want 20", gotMbps)
	}
}

// TestDuplicateSetupIsIdempotent retransmits the Setup and checks only
// one session exists, owned by the socket that opened it.
func TestDuplicateSetupIsIdempotent(t *testing.T) {
	s, sink := stepServer(t, ServerConfig{UplinkMbps: 10})
	peer, other := testPeer(0), testPeer(1)
	now := identityBase
	req := wire.Setup{SessionID: 9, RateKbps: wire.KbpsFromMbps(1)}
	for i := 0; i < 5; i++ {
		now = now.Add(time.Millisecond)
		s.step(now, from(peer, req.AppendTo(nil)))
	}
	if n := s.ActiveSessions(); n != 1 {
		t.Errorf("sessions = %d after duplicate requests, want 1", n)
	}
	// Every duplicate is re-acked, so a client whose first ack was lost
	// still gets in; the same ID from another socket is someone else's.
	if acks := count(sink.take(), peer, wire.TypeSetupAck); acks != 5 {
		t.Errorf("setup acks = %d, want one per duplicate (5)", acks)
	}
	s.step(now, from(other, req.AppendTo(nil)))
	out := sink.take()
	var rej wire.SetupReject
	if len(out) != 1 || out[0].to != other.String() || rej.Decode(out[0].pkt) != nil || rej.Code != wire.RejectBusy {
		t.Errorf("foreign Setup for a live session ID: sent %v; want one SetupReject(busy)", out)
	}
}

// TestJitterObserved checks that a paced stream produces a plausible jitter
// estimate.
func TestJitterObserved(t *testing.T) {
	s := startServer(t, ServerConfig{UplinkMbps: 50})
	pool := &ServerPool{Servers: []PoolServer{{Addr: s.Addr().String(), UplinkMbps: 50}}}
	probe, err := NewUDPProbeContext(context.Background(), pool, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Finish(0, 0)
	if err := probe.SetRate(15); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		probe.NextSample()
	}
	j := probe.Jitter()
	if j <= 0 {
		t.Fatal("no jitter estimate after 0.5 s of traffic")
	}
	if j > 100*time.Millisecond {
		t.Errorf("loopback jitter = %v, implausibly large", j)
	}
}
