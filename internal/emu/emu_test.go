package emu

import (
	"context"
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/core"
	"github.com/mobilebandwidth/swiftest/internal/gmm"
	"github.com/mobilebandwidth/swiftest/internal/linksim"
	"github.com/mobilebandwidth/swiftest/internal/stats"
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
	if math.Abs(got-12)/12 > 0.02 {
		t.Errorf("throughput through 12 Mbps bottleneck = %.2f Mbps", got)
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
	if math.Abs(got-8)/8 > 0.02 {
		t.Errorf("throughput below bottleneck = %.2f Mbps, want ≈8", got)
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
	// The delay is a floor — a relay that repays a late wake-up by sending
	// the next datagram early is lying about the link.
	if rtt < 40*time.Millisecond {
		t.Errorf("RTT through a 40 ms link = %v", rtt)
	}
	if added := rtt - base; added > 80*time.Millisecond {
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
	if math.Abs(res.Bandwidth-10)/10 > 0.03 {
		t.Errorf("measured %.2f Mbps through a 10 Mbps emulated link", res.Bandwidth)
	}
	if !res.Converged {
		t.Errorf("rode to the %v deadline on a steady link", res.Duration)
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

	if math.Abs(vRes.Bandwidth-rRes.Bandwidth)/capMbps > 0.03 {
		t.Errorf("virtual (%.1f Mbps) and real (%.1f Mbps) disagree on a %g Mbps link",
			vRes.Bandwidth, rRes.Bandwidth, capMbps)
	}
	t.Logf("consistency: virtual %.1f Mbps in %v; real %.1f Mbps in %v",
		vRes.Bandwidth, vRes.Duration, rRes.Bandwidth, rRes.Duration)
}

// blastServer stands in for a test server: when a client datagram reaches it
// through the relay it answers with size-byte datagrams at mbps for dur, each
// carrying its send time as an offset from epoch.
func blastServer(t *testing.T, epoch time.Time, mbps float64, size int, dur time.Duration) string {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() { conn.Close(); <-done })
	go func() {
		defer close(done)
		buf := make([]byte, size)
		_, peer, err := conn.ReadFromUDP(buf)
		if err != nil {
			return
		}
		perSec := mbps * 1e6 / 8 / float64(size)
		start := time.Now()
		for sent := 0; time.Since(start) < dur; time.Sleep(time.Millisecond) {
			for owed := int(time.Since(start).Seconds() * perSec); sent < owed; sent++ {
				binary.BigEndian.PutUint64(buf, uint64(time.Since(epoch)))
				if _, err := conn.WriteToUDP(buf, peer); err != nil {
					return
				}
			}
		}
	}()
	return conn.LocalAddr().String()
}

// TestShaperUnderOverload drives a 20 Mbit/s relay at 5× its rate with bare
// datagrams and holds the delivery to what a link of that rate does: the
// long-run rate exact, no burstiness beyond a scheduling quantum (99 in 100
// deliveries within 3 ms of the one before; a bare 1 ms timer on a shared
// host is itself tens of ms late once in a thousand), the queue bounded at
// QueueBytes, and nothing ever early. The timing bounds get the best of
// three attempts; a shared CI host can stall any one of them.
func TestShaperUnderOverload(t *testing.T) {
	const (
		rate  = 20.0
		size  = 1200
		delay = 10 * time.Millisecond
		queue = 64 << 10
		slack = 5 * time.Millisecond
	)
	queueing := time.Duration(float64(queue) / (rate * 1e6 / 8) * float64(time.Second))
	attempt := func() (faults []string) {
		epoch := time.Now()
		relay, err := NewRelay(Config{
			Target:   blastServer(t, epoch, 5*rate, size, 1400*time.Millisecond),
			RateMbps: rate, Delay: delay, QueueBytes: queue,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer relay.Close()
		conn, err := net.Dial("udp", relay.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write([]byte("go")); err != nil {
			t.Fatal(err)
		}

		type arrival struct{ at, transit time.Duration }
		var got []arrival
		buf := make([]byte, 2048)
		for {
			_ = conn.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
			n, err := conn.Read(buf)
			if err != nil {
				break
			}
			if n != size {
				t.Fatalf("relay delivered a %d-byte datagram, sent %d", n, size)
			}
			at := time.Since(epoch)
			got = append(got, arrival{at, at - time.Duration(binary.BigEndian.Uint64(buf))})
		}
		if len(got) == 0 {
			t.Fatal("nothing came through the relay")
		}
		// One second of steady state, past the fill of the queue.
		var steady []arrival
		for _, a := range got {
			if since := a.at - got[0].at; since >= 200*time.Millisecond && since < 1200*time.Millisecond {
				steady = append(steady, a)
			}
		}
		if len(steady) < 2 {
			return []string{fmt.Sprintf("only %d datagrams in the steady second", len(steady))}
		}
		span := steady[len(steady)-1].at - steady[0].at
		mbps := float64((len(steady)-1)*size) * 8 / span.Seconds() / 1e6
		if math.Abs(mbps-rate)/rate > 0.005 {
			faults = append(faults, fmt.Sprintf("delivered %.3f Mbit/s through a %g Mbit/s link", mbps, rate))
		}
		var gapMS []float64
		for i := 1; i < len(steady); i++ {
			gapMS = append(gapMS, float64(steady[i].at-steady[i-1].at)/float64(time.Millisecond))
		}
		if p99 := stats.NewSample(gapMS).Quantile(0.99); p99 > 3 {
			faults = append(faults, fmt.Sprintf("one delivery in 100 comes %.2f ms or more after the last", p99))
		}
		transitMS := make([]float64, len(got))
		for i, a := range got {
			transitMS[i] = float64(a.transit) / float64(time.Millisecond)
		}
		transits := stats.NewSample(transitMS)
		if least := transits.Quantile(0); least < float64(delay/time.Millisecond) {
			t.Errorf("a datagram crossed in %.2f ms, under the link's %v delay", least, delay)
		}
		if p99, bound := transits.Quantile(0.99), queueing+delay+slack; p99 > float64(bound)/float64(time.Millisecond) {
			faults = append(faults, fmt.Sprintf("one datagram in 100 takes %.1f ms or more to cross; a full queue plus delay is %v", p99, queueing+delay))
		}
		if relay.DroppedPackets() == 0 {
			t.Error("5× overload overflowed nothing")
		}
		return faults
	}
	var faults []string
	for try := 0; try < 3; try++ {
		if faults = attempt(); len(faults) == 0 {
			return
		}
		t.Logf("attempt %d: %v", try+1, faults)
	}
	t.Errorf("no attempt in three met the timing bounds; last: %v", faults)
}

// scriptedTarget is a server that does what a client datagram's first byte
// says: 'e' echoes it, 'q' stays quiet, 's' starts a datagram every 250 ms
// back to the sender until the target closes.
func scriptedTarget(t *testing.T) (addr string, stop func()) {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	closed := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 64)
		for {
			n, peer, err := conn.ReadFromUDP(buf)
			if err != nil {
				return
			}
			switch buf[0] {
			case 'e':
				_, _ = conn.WriteToUDP(buf[:n], peer)
			case 's':
				wg.Add(1)
				go func() {
					defer wg.Done()
					tick := time.NewTicker(250 * time.Millisecond)
					defer tick.Stop()
					for {
						select {
						case <-closed:
							return
						case <-tick.C:
							_, _ = conn.WriteToUDP([]byte("s"), peer)
						}
					}
				}()
			}
		}
	}()
	return conn.LocalAddr().String(), func() { close(closed); conn.Close(); wg.Wait() }
}

// TestIdlePipesRetire: a relay outlives many tests, each of which opens three
// client sockets. A pipe silent both ways for pipeIdle gives back its socket,
// buffer and goroutines; one carrying traffic in either direction stays.
func TestIdlePipesRetire(t *testing.T) {
	base := runtime.NumGoroutine()
	target, stopTarget := scriptedTarget(t)
	relay, err := NewRelay(Config{Target: target, RateMbps: 10, Delay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	peers := func() map[string]*peerPipe {
		relay.mu.Lock()
		defer relay.mu.Unlock()
		return maps.Clone(relay.peers)
	}
	// settled waits for the relay to hold so many pipes and the process no
	// more than so many goroutines over the start (no fewer is not asked: an
	// earlier test's goroutines may still have been winding down then).
	settled := func(pipes, goroutines int) bool {
		deadline := time.Now().Add(pipeIdle + 3*time.Second)
		for time.Now().Before(deadline) {
			if len(peers()) == pipes && runtime.NumGoroutine() <= base+goroutines {
				return true
			}
			time.Sleep(20 * time.Millisecond)
		}
		return false
	}
	dial := func() net.Conn {
		conn, err := net.Dial("udp", relay.Addr())
		if err != nil {
			t.Fatal(err)
		}
		return conn
	}

	// Two long-lived clients: one only ever sends, one only ever receives.
	up, down := dial(), dial()
	defer up.Close()
	defer down.Close()
	if _, err := down.Write([]byte("s")); err != nil {
		t.Fatal(err)
	}
	stopUp, upDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(upDone)
		for {
			_, _ = up.Write([]byte("q"))
			select {
			case <-stopUp:
				return
			case <-time.After(250 * time.Millisecond):
			}
		}
	}()
	// Forty short-lived ones: a datagram out, its echo back, gone.
	for i := 0; i < 40; i++ {
		conn := dial()
		if _, err := conn.Write([]byte("e")); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(time.Second))
		if _, err := conn.Read(make([]byte, 8)); err != nil {
			t.Fatalf("echo %d through the relay: %v", i, err)
		}
		conn.Close()
	}
	var before map[string]*peerPipe
	for deadline := time.Now().Add(time.Second); len(before) != 42; time.Sleep(time.Millisecond) {
		if before = peers(); time.Now().After(deadline) {
			t.Fatalf("relay holds %d pipes for 42 client sockets", len(before))
		}
	}

	// The relay's uplink loop and the target's reader; two pipes × two
	// goroutines, the sender above and the target's streamer.
	if !settled(2, 2+6) {
		t.Fatalf("after the idle period: %d pipes, %d goroutines over the start; want 2 and 8",
			len(peers()), runtime.NumGoroutine()-base)
	}
	time.Sleep(pipeIdle / 2) // well past the point an idle pipe would have gone
	for _, conn := range []net.Conn{up, down} {
		key := conn.LocalAddr().String()
		if now := peers()[key]; now == nil || now != before[key] {
			t.Errorf("the pipe of %s, which carried traffic throughout, was retired", key)
		}
	}

	close(stopUp)
	<-upDone
	stopTarget()
	if !settled(0, 1) {
		t.Errorf("after the traffic stopped: %d pipes, %d goroutines over the start; want only the uplink loop",
			len(peers()), runtime.NumGoroutine()-base)
	}
}
