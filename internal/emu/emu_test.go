package emu

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/core"
	"github.com/mobilebandwidth/swiftest/internal/gmm"
	"github.com/mobilebandwidth/swiftest/internal/linksim"
	"github.com/mobilebandwidth/swiftest/internal/transport"
)

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{RateMbps: 10},                                       // missing target
		{Target: "127.0.0.1:1", RateMbps: 0},                 // bad rate
		{Target: "127.0.0.1:1", RateMbps: 10, LossRate: 1.5}, // bad loss
	}
	for i, cfg := range cases {
		if _, err := NewRelay(cfg); err == nil {
			t.Errorf("case %d: config %+v accepted", i, cfg)
		}
	}
}

func startPair(t *testing.T, relayCfg Config) (*transport.Server, *Relay) {
	t.Helper()
	srv, err := transport.NewServer("127.0.0.1:0", transport.ServerConfig{UplinkMbps: 200})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	relayCfg.Target = srv.Addr().String()
	relay, err := NewRelay(relayCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { relay.Close() })
	return srv, relay
}

func measureThroughRelay(t *testing.T, relay *Relay, requestMbps float64, warm, windows int) float64 {
	t.Helper()
	pool := &transport.ServerPool{Servers: []transport.PoolServer{
		{Addr: relay.Addr(), UplinkMbps: 200},
	}}
	probe, err := transport.NewUDPProbeContext(context.Background(), pool, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Finish(0, 0)
	if err := probe.SetRate(requestMbps); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < warm; i++ {
		probe.NextSample()
	}
	var sum float64
	for i := 0; i < windows; i++ {
		s, ok := probe.NextSample()
		if !ok {
			t.Fatal("sample stream ended")
		}
		sum += s
	}
	return sum / float64(windows)
}

// TestBottleneckShapesRealTraffic is the core property: a client requesting
// far more than the emulated access link delivers only the bottleneck rate.
func TestBottleneckShapesRealTraffic(t *testing.T) {
	_, relay := startPair(t, Config{RateMbps: 12})
	got := measureThroughRelay(t, relay, 60, 4, 12)
	if math.Abs(got-12)/12 > 0.3 {
		t.Errorf("throughput through 12 Mbps bottleneck = %.1f Mbps", got)
	}
	if relay.DroppedPackets() == 0 {
		t.Error("5× overload should overflow the bottleneck queue")
	}
}

// TestUnderLoadPassesThrough checks that traffic below the bottleneck is not
// throttled.
func TestUnderLoadPassesThrough(t *testing.T) {
	_, relay := startPair(t, Config{RateMbps: 50})
	got := measureThroughRelay(t, relay, 8, 3, 10)
	if math.Abs(got-8)/8 > 0.3 {
		t.Errorf("throughput below bottleneck = %.1f Mbps, want ≈8", got)
	}
}

// TestDelayInflatesPing checks the propagation-delay knob end to end via the
// real PING path.
func TestDelayInflatesPing(t *testing.T) {
	_, direct := startPair(t, Config{RateMbps: 100})
	base, err := transport.PingServerContext(context.Background(), direct.Addr(), 3, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	_, delayed := startPair(t, Config{RateMbps: 100, Delay: 40 * time.Millisecond})
	rtt, err := transport.PingServerContext(context.Background(), delayed.Addr(), 3, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	added := rtt - base
	if added < 30*time.Millisecond || added > 80*time.Millisecond {
		t.Errorf("added one-way delay of 40 ms produced ΔRTT = %v", added)
	}
}

// TestLossDropsPackets checks the random-loss knob.
func TestLossDropsPackets(t *testing.T) {
	_, relay := startPair(t, Config{RateMbps: 100, LossRate: 0.5, Seed: 7})
	got := measureThroughRelay(t, relay, 10, 3, 10)
	// Half the downlink datagrams vanish: ≈5 Mbps should arrive.
	if got > 8 || got < 2 {
		t.Errorf("throughput with 50%% loss = %.1f Mbps, want ≈5", got)
	}
	if relay.DroppedPackets() == 0 {
		t.Error("no drops recorded")
	}
}

// TestSwiftestThroughEmulatedLink is the flagship integration: the full real
// client/server stack measures an emulated 10 Mbps access link.
func TestSwiftestThroughEmulatedLink(t *testing.T) {
	_, relay := startPair(t, Config{RateMbps: 10, Delay: 10 * time.Millisecond})
	pool := &transport.ServerPool{Servers: []transport.PoolServer{
		{Addr: relay.Addr(), UplinkMbps: 200},
	}}
	if err := pool.RankByLatencyContext(context.Background(), 2, time.Second); err != nil {
		t.Fatal(err)
	}
	probe, err := transport.NewUDPProbeContext(context.Background(), pool, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	model := gmm.MustNew(
		gmm.Component{Weight: 0.6, Mu: 8, Sigma: 1.5},
		gmm.Component{Weight: 0.4, Mu: 25, Sigma: 4},
	)
	res, err := core.RunContext(context.Background(), probe, core.Config{Model: model, MaxDuration: 4 * time.Second})
	probe.Finish(res.Bandwidth, res.Duration)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Bandwidth-10)/10 > 0.35 {
		t.Errorf("measured %.1f Mbps through a 10 Mbps emulated link", res.Bandwidth)
	}
	t.Logf("emulated-link end-to-end: %.1f Mbps in %v (converged=%v)",
		res.Bandwidth, res.Duration, res.Converged)
}

func TestRelayCloseIdempotent(t *testing.T) {
	_, relay := startPair(t, Config{RateMbps: 10})
	if err := relay.Close(); err != nil {
		t.Fatal(err)
	}
	if err := relay.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

// TestVirtualRealConsistency is the bridge between the two worlds: the same
// nominal access link (10 Mbps, 20 ms RTT) measured by the virtual-time
// engine and by the real UDP stack through the relay must agree.
func TestVirtualRealConsistency(t *testing.T) {
	const capMbps = 10.0
	model := gmm.MustNew(
		gmm.Component{Weight: 0.6, Mu: 8, Sigma: 1.5},
		gmm.Component{Weight: 0.4, Mu: 25, Sigma: 4},
	)

	// Virtual time.
	vLink := linksim.MustNew(linksim.Config{
		CapacityMbps: capMbps, RTT: 20 * time.Millisecond, Fluctuation: 0.005,
	}, 5)
	vProbe := core.NewSimProbe(vLink)
	vRes, err := core.RunContext(context.Background(), vProbe, core.Config{Model: model, MaxDuration: 3 * time.Second})
	vProbe.Close()
	if err != nil {
		t.Fatal(err)
	}

	// Real sockets through the relay.
	_, relay := startPair(t, Config{RateMbps: capMbps, Delay: 10 * time.Millisecond})
	pool := &transport.ServerPool{Servers: []transport.PoolServer{
		{Addr: relay.Addr(), UplinkMbps: 200},
	}}
	rProbe, err := transport.NewUDPProbeContext(context.Background(), pool, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	rRes, err := core.RunContext(context.Background(), rProbe, core.Config{Model: model, MaxDuration: 3 * time.Second})
	rProbe.Finish(rRes.Bandwidth, rRes.Duration)
	if err != nil {
		t.Fatal(err)
	}

	if math.Abs(vRes.Bandwidth-rRes.Bandwidth)/capMbps > 0.3 {
		t.Errorf("virtual (%.1f Mbps) and real (%.1f Mbps) disagree on a %g Mbps link",
			vRes.Bandwidth, rRes.Bandwidth, capMbps)
	}
	t.Logf("consistency: virtual %.1f Mbps in %v; real %.1f Mbps in %v",
		vRes.Bandwidth, vRes.Duration, rRes.Bandwidth, rRes.Duration)
}
