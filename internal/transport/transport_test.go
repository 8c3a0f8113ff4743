package transport

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/core"
	"github.com/mobilebandwidth/swiftest/internal/gmm"
)

func startServer(t *testing.T, cfg ServerConfig) *Server {
	t.Helper()
	s, err := NewServer("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestPingPong(t *testing.T) {
	s := startServer(t, ServerConfig{})
	rtt, err := PingServerContext(context.Background(), s.Addr().String(), 3, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rtt <= 0 || rtt > 500*time.Millisecond {
		t.Errorf("loopback RTT = %v, implausible", rtt)
	}
}

func TestPingUnreachable(t *testing.T) {
	// A port with no server: must time out, not hang.
	if _, err := PingServerContext(context.Background(), "127.0.0.1:1", 1, 100*time.Millisecond); err == nil {
		t.Error("expected error pinging an unreachable server")
	}
}

func TestRankByLatency(t *testing.T) {
	s1 := startServer(t, ServerConfig{})
	s2 := startServer(t, ServerConfig{})
	pool := &ServerPool{Servers: []PoolServer{
		{Addr: "127.0.0.1:1", UplinkMbps: 100}, // unreachable, dropped
		{Addr: s1.Addr().String(), UplinkMbps: 100},
		{Addr: s2.Addr().String(), UplinkMbps: 100},
	}}
	if err := pool.RankByLatencyContext(context.Background(), 2, 200*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(pool.Servers) != 2 {
		t.Fatalf("reachable servers = %d, want 2", len(pool.Servers))
	}
	for _, srv := range pool.Servers {
		if srv.RTT <= 0 {
			t.Errorf("server %s has no RTT", srv.Addr)
		}
	}
}

func TestRankByLatencyAllDead(t *testing.T) {
	pool := &ServerPool{Servers: []PoolServer{{Addr: "127.0.0.1:1", UplinkMbps: 100}}}
	if err := pool.RankByLatencyContext(context.Background(), 1, 50*time.Millisecond); err == nil {
		t.Error("expected error when every server is unreachable")
	}
}

// TestServersForCoversRate pins the server-selection rule SetRate runs:
// sessions open nearest-first until the live uplink covers the rate with 5 %
// headroom (so one 100 Mbit/s server does not cover 100 Mbit/s), and a rate
// beyond the pool takes every server.
func TestServersForCoversRate(t *testing.T) {
	var servers []PoolServer
	for i := 0; i < 3; i++ {
		s := startServer(t, ServerConfig{UplinkMbps: 100})
		servers = append(servers, PoolServer{Addr: s.Addr().String(), UplinkMbps: 100})
	}
	for _, tc := range []struct {
		mbps float64
		want int
	}{{50, 1}, {100, 2}, {150, 2}, {10000, 3}} {
		pool := &ServerPool{Servers: append([]PoolServer(nil), servers...)}
		probe, err := NewUDPProbeContext(context.Background(), pool, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		err = probe.SetRate(tc.mbps)
		got := probe.ServersUsed()
		probe.Finish(0, 0)
		if err != nil {
			t.Fatalf("SetRate(%g): %v", tc.mbps, err)
		}
		if got != tc.want {
			t.Errorf("servers for %g Mbps = %d, want %d", tc.mbps, got, tc.want)
		}
	}
}

func TestPacedDeliveryAtRequestedRate(t *testing.T) {
	s := startServer(t, ServerConfig{UplinkMbps: 100})
	pool := &ServerPool{Servers: []PoolServer{{Addr: s.Addr().String(), UplinkMbps: 100}}}
	probe, err := NewUDPProbeContext(context.Background(), pool, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Finish(0, 0)

	const want = 20.0 // Mbps: modest for CI loopback
	if err := probe.SetRate(want); err != nil {
		t.Fatal(err)
	}
	// Skip the first two settling samples, then average half a second.
	probe.NextSample()
	probe.NextSample()
	var sum float64
	const n = 10
	for i := 0; i < n; i++ {
		s, ok := probe.NextSample()
		if !ok {
			t.Fatal("sample stream ended")
		}
		sum += s
	}
	got := sum / n
	if math.Abs(got-want)/want > 0.25 {
		t.Errorf("paced throughput = %.1f Mbps, want ≈%.0f", got, want)
	}
}

func TestServerClampsToUplink(t *testing.T) {
	s := startServer(t, ServerConfig{UplinkMbps: 10})
	pool := &ServerPool{Servers: []PoolServer{{Addr: s.Addr().String(), UplinkMbps: 10}}}
	probe, err := NewUDPProbeContext(context.Background(), pool, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Finish(0, 0)

	if err := probe.SetRate(200); err != nil { // far beyond uplink
		t.Fatal(err)
	}
	probe.NextSample()
	probe.NextSample()
	var sum float64
	const n = 10
	for i := 0; i < n; i++ {
		v, _ := probe.NextSample()
		sum += v
	}
	got := sum / n
	if got > 14 {
		t.Errorf("throughput = %.1f Mbps from a 10 Mbps-uplink server", got)
	}
}

func TestByeStopsSessionAndReportsResult(t *testing.T) {
	results := make(chan float64, 1)
	s := startServer(t, ServerConfig{UplinkMbps: 100, OnResult: func(m float64) { results <- m }})
	pool := &ServerPool{Servers: []PoolServer{{Addr: s.Addr().String(), UplinkMbps: 100}}}
	probe, err := NewUDPProbeContext(context.Background(), pool, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if err := probe.SetRate(10); err != nil {
		t.Fatal(err)
	}
	probe.NextSample()
	probe.Finish(42.5, 800*time.Millisecond)

	select {
	case got := <-results:
		if math.Abs(got-42.5) > 0.01 {
			t.Errorf("reported result = %g, want 42.5", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("server never received the Bye result")
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.ActiveSessions() != 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := s.ActiveSessions(); n != 0 {
		t.Errorf("active sessions = %d after Bye, want 0", n)
	}
}

// TestEndToEndSwiftestOverUDP runs the full core engine over the real
// transport on loopback: the flagship integration test.
func TestEndToEndSwiftestOverUDP(t *testing.T) {
	s := startServer(t, ServerConfig{UplinkMbps: 100})
	pool := &ServerPool{Servers: []PoolServer{{Addr: s.Addr().String(), UplinkMbps: 100}}}
	if err := pool.RankByLatencyContext(context.Background(), 2, time.Second); err != nil {
		t.Fatal(err)
	}
	probe, err := NewUDPProbeContext(context.Background(), pool, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	// Loopback delivers whatever the server paces, so the "access
	// bandwidth" under test is the server's own 25 Mbps-mode pacing; the
	// engine must converge on the first mode without escalating wildly.
	model := gmm.MustNew(
		gmm.Component{Weight: 0.7, Mu: 25, Sigma: 3},
		gmm.Component{Weight: 0.3, Mu: 80, Sigma: 8},
	)
	res, err := core.RunContext(context.Background(), probe, core.Config{Model: model, MaxDuration: 4 * time.Second})
	probe.Finish(res.Bandwidth, res.Duration)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bandwidth <= 0 {
		t.Fatal("no bandwidth estimate")
	}
	if len(res.Samples) < 10 {
		t.Errorf("samples = %d, want ≥10", len(res.Samples))
	}
	t.Logf("UDP end-to-end: %.1f Mbps in %v (%d samples, converged=%v)",
		res.Bandwidth, res.Duration, len(res.Samples), res.Converged)
}

func TestProbeAfterCloseErrors(t *testing.T) {
	s := startServer(t, ServerConfig{})
	pool := &ServerPool{Servers: []PoolServer{{Addr: s.Addr().String(), UplinkMbps: 100}}}
	probe, err := NewUDPProbeContext(context.Background(), pool, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	probe.Finish(0, 0)
	if err := probe.SetRate(10); err == nil {
		t.Error("SetRate after Finish should error")
	}
	if _, ok := probe.NextSample(); ok {
		t.Error("NextSample after Finish should report !ok")
	}
}

func TestEmptyPoolRejected(t *testing.T) {
	if _, err := NewUDPProbeContext(context.Background(), &ServerPool{}, rand.New(rand.NewSource(1))); err == nil {
		t.Error("empty pool accepted")
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	s := startServer(t, ServerConfig{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}
