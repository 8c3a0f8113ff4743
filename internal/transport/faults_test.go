package transport

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/core"
	"github.com/mobilebandwidth/swiftest/internal/errdefs"
	"github.com/mobilebandwidth/swiftest/internal/estimate"
	"github.com/mobilebandwidth/swiftest/internal/faults"
	"github.com/mobilebandwidth/swiftest/internal/gmm"
	"github.com/mobilebandwidth/swiftest/internal/obs"
)

// startFaultyPool starts n loopback servers sharing one fault plan, each
// bound to its pool index, and returns the ranked-order pool (configured
// order; no ping round, so indexes stay aligned with the plan).
func startFaultyPool(t *testing.T, n int, uplink float64, plan *faults.Plan) *ServerPool {
	t.Helper()
	inj := plan.Injector()
	pool := &ServerPool{}
	for i := 0; i < n; i++ {
		s := startServer(t, ServerConfig{
			UplinkMbps: uplink,
			Faults:     &faults.Binding{Inj: inj, Server: i},
		})
		pool.Servers = append(pool.Servers, PoolServer{Addr: s.Addr().String(), UplinkMbps: uplink})
	}
	return pool
}

// neverStop is a termination policy that lets a test run to its MaxDuration,
// for scenarios whose fault must land before the test ends.
type neverStop struct{}

func (neverStop) Name() string { return "never" }

func (neverStop) Decide([]float64, []estimate.TrajectoryPoint, time.Duration) core.Decision {
	return core.Decision{}
}

// TestLoopbackBlackoutFailover is the wire-level acceptance scenario: one of
// three loopback servers blacks out mid-test; the client detects the dead
// session, redistributes, and the run finishes degraded with the loss
// recorded in the trace and the client metric.
func TestLoopbackBlackoutFailover(t *testing.T) {
	plan := &faults.Plan{Faults: []faults.Fault{
		{Kind: faults.Blackout, Server: 1, AtMS: 900},
	}}
	pool := startFaultyPool(t, 3, 25, plan)

	reg := obs.NewRegistry()
	tr := obs.NewTrace(0)
	probe, err := NewUDPProbeContext(context.Background(), pool, rand.New(rand.NewSource(9)), ProbeConfig{Trace: tr, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}

	// One 60 Mbps mode: the probe needs all three 25 Mbps servers. The
	// crossing rule can close a clean loopback test inside a second — before
	// the 900 ms blackout plus the lost-session windows have played out — so
	// the run is held open to MaxDuration.
	model := gmm.MustNew(gmm.Component{Weight: 1, Mu: 60, Sigma: 6})
	res, err := core.RunContext(context.Background(), probe, core.Config{Model: model, MaxDuration: 4 * time.Second, Trace: tr, Terminate: neverStop{}})
	probe.Finish(res.Bandwidth, res.Duration)
	if err != nil {
		t.Fatal(err)
	}
	if res.ServersUsed != 3 || res.ServersLost != 1 || !res.Degraded {
		t.Fatalf("health = used %d lost %d degraded %v, want 3/1/true",
			res.ServersUsed, res.ServersLost, res.Degraded)
	}
	lostEvents := 0
	for _, e := range tr.Events() {
		if e.Kind == obs.EventServerLost {
			lostEvents++
			if e.Note != pool.Servers[1].Addr {
				t.Errorf("server_lost names %q, want %q", e.Note, pool.Servers[1].Addr)
			}
		}
	}
	if lostEvents != 1 {
		t.Errorf("server_lost events = %d, want 1", lostEvents)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["swiftest_client_sessions_lost_total"]; got != 1 {
		t.Errorf("swiftest_client_sessions_lost_total = %d, want 1", got)
	}
	if res.Bandwidth <= 0 {
		t.Error("degraded run produced no bandwidth estimate")
	}
}

// TestLoopbackHandshakeDropRetries: a handshake-drop window forces the
// client through its bounded retry loop before the session opens.
func TestLoopbackHandshakeDropRetries(t *testing.T) {
	plan := &faults.Plan{Faults: []faults.Fault{
		{Kind: faults.HandshakeDrop, Server: 0, AtMS: 0, DurationMS: 300},
	}}
	pool := startFaultyPool(t, 1, 50, plan)

	reg := obs.NewRegistry()
	tr := obs.NewTrace(0)
	probe, err := NewUDPProbeContext(context.Background(), pool, rand.New(rand.NewSource(10)), ProbeConfig{Trace: tr, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Finish(0, 0)

	if err := probe.SetRate(10); err != nil {
		t.Fatalf("SetRate through a 300 ms handshake-drop window: %v", err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["swiftest_client_handshake_retries_total"]; got == 0 {
		t.Error("no handshake retry recorded despite the drop window")
	}
	retries := 0
	for _, e := range tr.Events() {
		if e.Kind == obs.EventServerRetry {
			retries++
		}
	}
	if retries == 0 {
		t.Error("no server_retry trace event")
	}
}

// TestPongDelayInflatesRTT: a pong-delay fault must show up in the ping
// measurement — the lever the selection tests use to force an ordering.
func TestPongDelayInflatesRTT(t *testing.T) {
	plan := &faults.Plan{Faults: []faults.Fault{
		{Kind: faults.PongDelay, Server: 0, AtMS: 0, DelayMS: 100},
	}}
	pool := startFaultyPool(t, 1, 50, plan)
	rtt, err := PingServerContext(context.Background(), pool.Servers[0].Addr, 2, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rtt < 100*time.Millisecond {
		t.Errorf("RTT %v through a 100 ms pong delay", rtt)
	}
}

// TestRankByLatencyDeterministicOrder: with a pong delay pinning one
// server's RTT far above the other's, the concurrent ranking must produce
// the same order on every run.
func TestRankByLatencyDeterministicOrder(t *testing.T) {
	plan := &faults.Plan{Faults: []faults.Fault{
		{Kind: faults.PongDelay, Server: 0, AtMS: 0, DelayMS: 120},
	}}
	inj := plan.Injector()
	slow := startServer(t, ServerConfig{Faults: &faults.Binding{Inj: inj, Server: 0}})
	fast := startServer(t, ServerConfig{})
	for round := 0; round < 3; round++ {
		pool := &ServerPool{Servers: []PoolServer{
			{Addr: slow.Addr().String(), UplinkMbps: 50},
			{Addr: fast.Addr().String(), UplinkMbps: 50},
		}}
		if err := pool.RankByLatencyContext(context.Background(), 2, time.Second); err != nil {
			t.Fatal(err)
		}
		if pool.Servers[0].Addr != fast.Addr().String() {
			t.Fatalf("round %d: delayed server ranked first", round)
		}
	}
}

// TestPingErrorsAreStructured: ping failures carry both the sentinel and
// the typed server wrapper.
func TestPingErrorsAreStructured(t *testing.T) {
	_, err := PingServerContext(context.Background(), "127.0.0.1:1", 1, 50*time.Millisecond)
	if !errors.Is(err, errdefs.ErrProbeTimeout) {
		t.Errorf("err = %v, want ErrProbeTimeout in the chain", err)
	}
	var se *errdefs.ServerError
	if !errors.As(err, &se) || se.Addr != "127.0.0.1:1" || se.Op != "ping" {
		t.Errorf("err = %v, want *ServerError{Addr:127.0.0.1:1, Op:ping}", err)
	}
}

// TestRankByLatencyContextCancelled: an already-cancelled context aborts
// ranking with the abort sentinel.
func TestRankByLatencyContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pool := &ServerPool{Servers: []PoolServer{{Addr: "127.0.0.1:1", UplinkMbps: 50}}}
	err := pool.RankByLatencyContext(ctx, 1, 50*time.Millisecond)
	if !errors.Is(err, errdefs.ErrTestAborted) {
		t.Errorf("err = %v, want ErrTestAborted", err)
	}
}

// TestRankByLatencyNoReachableSentinel: total unreachability reports the
// dedicated sentinel.
func TestRankByLatencyNoReachableSentinel(t *testing.T) {
	pool := &ServerPool{Servers: []PoolServer{{Addr: "127.0.0.1:1", UplinkMbps: 50}}}
	err := pool.RankByLatencyContext(context.Background(), 1, 50*time.Millisecond)
	if !errors.Is(err, errdefs.ErrNoReachableServer) {
		t.Errorf("err = %v, want ErrNoReachableServer", err)
	}
}

// TestProbeContextCancelStopsSampling: cancelling the probe's context makes
// NextSample return promptly with !ok instead of sleeping out the window.
func TestProbeContextCancelStopsSampling(t *testing.T) {
	s := startServer(t, ServerConfig{})
	pool := &ServerPool{Servers: []PoolServer{{Addr: s.Addr().String(), UplinkMbps: 50}}}
	ctx, cancel := context.WithCancel(context.Background())
	probe, err := NewUDPProbeContext(ctx, pool, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Finish(0, 0)
	if err := probe.SetRate(5); err != nil {
		t.Fatal(err)
	}
	cancel()
	start := time.Now()
	if _, ok := probe.NextSample(); ok {
		// The first boundary may already have elapsed; the second wait
		// must observe the cancellation.
		if _, ok := probe.NextSample(); ok {
			t.Error("NextSample kept sampling after cancellation")
		}
	}
	if waited := time.Since(start); waited > time.Second {
		t.Errorf("cancelled NextSample blocked %v", waited)
	}
}
