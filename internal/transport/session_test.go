package transport

import (
	"context"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"net"
	"testing"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/core"
	"github.com/mobilebandwidth/swiftest/internal/errdefs"
	"github.com/mobilebandwidth/swiftest/internal/estimate"
	"github.com/mobilebandwidth/swiftest/internal/faults"
	"github.com/mobilebandwidth/swiftest/internal/obs"
	"github.com/mobilebandwidth/swiftest/internal/wire"
)

// newProbe prepares a probe against one server, configured by cfg.
func newProbe(t *testing.T, s *Server, seed int64, cfg ...ProbeConfig) *UDPProbe {
	t.Helper()
	pool := &ServerPool{Servers: []PoolServer{{Addr: s.Addr().String(), UplinkMbps: 100}}}
	probe, err := NewUDPProbeContext(context.Background(), pool, rand.New(rand.NewSource(seed)), cfg...)
	if err != nil {
		t.Fatal(err)
	}
	return probe
}

// TestV2EndToEnd runs the two-channel protocol on both syscall paths: paced
// throughput tracks the request, per-interval Reports arrive, and the Bye
// retires the session and delivers the result.
func TestV2EndToEnd(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode WireMode
	}{
		{"batched", WireAuto},
		{"fallback", WireFallback},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			results := make(chan float64, 1)
			s := startServer(t, ServerConfig{
				UplinkMbps: 100, Wire: tc.mode, Metrics: reg,
				OnResult: func(m float64) { results <- m },
			})
			probe := newProbe(t, s, 11)

			const want = 20.0
			if err := probe.SetRate(want); err != nil {
				t.Fatal(err)
			}
			probe.NextSample()
			probe.NextSample()
			var sum float64
			const n = 10
			for i := 0; i < n; i++ {
				v, ok := probe.NextSample()
				if !ok {
					t.Fatal("sample stream ended")
				}
				sum += v
			}
			if got := sum / n; math.Abs(got-want)/want > 0.25 {
				t.Errorf("paced throughput = %.1f Mbps, want ≈%.0f", got, want)
			}
			// Half a second of samples spans several 100 ms report
			// intervals.
			var reported bool
			probe.mu.Lock()
			for _, sess := range probe.sessions {
				if sess.repBytes.Load() > 0 {
					reported = true
				}
			}
			probe.mu.Unlock()
			if !reported {
				t.Error("no server Report arrived on the control channel")
			}

			probe.SetFinalReport(estimate.Estimates{
				CrossingMbps: 21, TrimmedMeanMbps: 20, SustainedPeakMbps: 22, P90P80Mbps: 21,
			}, estimate.RegimeStable)
			probe.Finish(21.5, 600*time.Millisecond)
			select {
			case got := <-results:
				if math.Abs(got-21.5) > 0.01 {
					t.Errorf("Bye result = %g, want 21.5", got)
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
			if got := reg.Counter("swiftest_server_sessions_started_total", "").Value(); got != 1 {
				t.Errorf("sessions-started counter = %d, want 1", got)
			}
		})
	}
}

// TestV2AuthRejection locks the server with a fleet key: an unauthenticated
// Setup is refused — observable in both the client error chain and the
// server's auth-reject counter — while a client holding a minted token is
// admitted.
func TestV2AuthRejection(t *testing.T) {
	const key = 0xfeedface12345678
	reg := obs.NewRegistry()
	s := startServer(t, ServerConfig{UplinkMbps: 100, AuthKey: key, Metrics: reg})

	// No token: refused, and the refusal is not retried into oblivion.
	probe := newProbe(t, s, 14)
	err := probe.SetRate(10)
	probe.Finish(0, 0)
	if err == nil {
		t.Fatal("unauthenticated SetRate succeeded against a keyed server")
	}
	if !errors.Is(err, errdefs.ErrAuthRejected) {
		t.Errorf("error = %v, want errdefs.ErrAuthRejected in the chain", err)
	}
	if got := reg.Counter("swiftest_server_auth_rejects_total", "").Value(); got == 0 {
		t.Error("auth-reject counter did not move")
	}

	// Minted token: admitted.
	okProbe := newProbe(t, s, 15, ProbeConfig{Token: wire.MintToken(key, 7, 42, 0)})
	if err := okProbe.SetRate(10); err != nil {
		t.Fatalf("authenticated SetRate: %v", err)
	}
	okProbe.NextSample()
	if v, ok := okProbe.NextSample(); !ok || v <= 0 {
		t.Errorf("authenticated session sample = (%.1f, %v), want traffic", v, ok)
	}
	okProbe.Finish(0, 0)

	// A forged token (wrong key) is refused like a missing one.
	forged := newProbe(t, s, 16, ProbeConfig{Token: wire.MintToken(key^1, 7, 42, 0)})
	err = forged.SetRate(10)
	forged.Finish(0, 0)
	if !errors.Is(err, errdefs.ErrAuthRejected) {
		t.Errorf("forged-token error = %v, want errdefs.ErrAuthRejected", err)
	}
}

// TestV2TokenExpiry is the lease-deadline round trip: a token whose expiry
// already passed is rejected at setup exactly like a forged one, a token
// whose deadline is still ahead is admitted, and the client cannot stretch
// a stale deadline because the MAC covers it.
func TestV2TokenExpiry(t *testing.T) {
	const key = 0xfeedface87654321
	reg := obs.NewRegistry()
	s := startServer(t, ServerConfig{UplinkMbps: 100, AuthKey: key, Metrics: reg})
	nowMS := uint64(time.Now().UnixMilli())

	// Expired a minute ago: RejectAuth, counted.
	stale := newProbe(t, s, 24, ProbeConfig{Token: wire.MintToken(key, 7, 42, nowMS-60_000)})
	err := stale.SetRate(10)
	stale.Finish(0, 0)
	if !errors.Is(err, errdefs.ErrAuthRejected) {
		t.Fatalf("stale-token error = %v, want errdefs.ErrAuthRejected", err)
	}
	if got := reg.Counter("swiftest_server_auth_rejects_total", "").Value(); got == 0 {
		t.Error("auth-reject counter did not move on an expired token")
	}

	// Same stale token with the deadline rewritten forward: the MAC no
	// longer verifies, so the stretch buys nothing.
	stretched := wire.MintToken(key, 7, 42, nowMS-60_000)
	stretched.Expires = nowMS + 3_600_000
	cheat := newProbe(t, s, 25, ProbeConfig{Token: stretched})
	err = cheat.SetRate(10)
	cheat.Finish(0, 0)
	if !errors.Is(err, errdefs.ErrAuthRejected) {
		t.Errorf("stretched-token error = %v, want errdefs.ErrAuthRejected", err)
	}

	// An hour of validity left: admitted and served.
	fresh := newProbe(t, s, 26, ProbeConfig{Token: wire.MintToken(key, 7, 42, nowMS+3_600_000)})
	if err := fresh.SetRate(10); err != nil {
		t.Fatalf("fresh-token SetRate: %v", err)
	}
	fresh.NextSample()
	if v, ok := fresh.NextSample(); !ok || v <= 0 {
		t.Errorf("fresh-token session sample = (%.1f, %v), want traffic", v, ok)
	}
	fresh.Finish(0, 0)
}

// TestRetiredFramesAreInert sends the session frames of the retired
// single-socket protocol — byte for byte what its client put on the wire —
// at an open server and at a keyed one. Once, a 16-byte TestRequest from any
// source address made either server pace its uplink at that address until
// the idle timeout; now the frames decode as nothing: no reply, no session,
// not one paced byte.
func TestRetiredFramesAreInert(t *testing.T) {
	frames := map[string]string{
		"TestRequest(id 42, 100 Mbps)":    "57540103" + "000000000000002a" + "000186a0",
		"RateSet(id 42, 100 Mbps, seq 1)": "57540105" + "000000000000002a" + "000186a0" + "00000001",
		"Fin(id 42, 100 Mbps, 1 s)":       "57540107" + "000000000000002a" + "000186a0" + "000003e8",
	}
	for _, tc := range []struct {
		name string
		cfg  ServerConfig
	}{
		{"open", ServerConfig{UplinkMbps: 100}},
		{"keyed", ServerConfig{UplinkMbps: 100, AuthKey: 0xabc}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, sink := stepServer(t, tc.cfg)
			peer := testPeer(0)
			now := identityBase
			for name, h := range frames {
				pkt, err := hex.DecodeString(h)
				if err != nil {
					t.Fatal(err)
				}
				s.step(now, from(peer, pkt))
				now = stepUntil(s, now, now.Add(300*time.Millisecond))
				if out := sink.take(); len(out) > 0 {
					t.Errorf("%s elicited a %d-byte reply: %x", name, len(out[0].pkt), out[0].pkt[:min(len(out[0].pkt), 32)])
				}
			}
			if n := s.ActiveSessions(); n != 0 {
				t.Errorf("active sessions = %d, want 0", n)
			}
			if n := s.BytesSent(); n != 0 {
				t.Errorf("server paced %d bytes at a peer that opened no session", n)
			}
			// Still a live server: the selection probe is answered.
			ping := wire.Ping{Seq: 1}
			s.step(now, from(peer, ping.AppendTo(nil)))
			if n := count(sink.take(), peer, wire.TypePong); n != 1 {
				t.Errorf("ping after retired frames: %d pongs, want 1", n)
			}
		})
	}
}

// TestCapsRideSetup: the capability set a session runs with is the one its
// Setup carries, intersected with the server's — the server remembers nothing
// from the Hello. A Setup offering no capabilities gets a paced stream and no
// Reports; one offering CapReports gets both.
func TestCapsRideSetup(t *testing.T) {
	s, sink := stepServer(t, ServerConfig{UplinkMbps: 100})
	now := identityBase
	for i, tc := range []struct {
		name        string
		caps        uint32
		wantReports bool
	}{
		{"none", 0, false},
		{"reports", wire.CapReports | 1<<31, true}, // the unknown bit is masked off, not echoed
	} {
		t.Run(tc.name, func(t *testing.T) {
			id, peer := uint64(50+i), testPeer(i)
			stepOpen(t, s, now, id, peer, wire.KbpsFromMbps(5), tc.caps)
			if got := s.byID[id].caps; got != tc.caps&wire.ServerCaps {
				t.Errorf("session caps = %#x, want %#x", got, tc.caps&wire.ServerCaps)
			}

			// 350 ms spans three 100 ms report intervals.
			now = stepUntil(s, now, now.Add(350*time.Millisecond))
			out := sink.take()
			data, reports := count(out, peer, wire.TypeData2), count(out, peer, wire.TypeReport)
			bye := wire.Bye{SessionID: id}
			s.step(now, from(peer, bye.AppendTo(nil)))
			if data == 0 {
				t.Error("no paced datagrams arrived")
			}
			if (reports > 0) != tc.wantReports {
				t.Errorf("reports received = %d, want reports: %v", reports, tc.wantReports)
			}
		})
	}
}

// TestSilentServerTimesOut: a peer that never answers the Hello exhausts the
// one handshake budget and surfaces as a probe timeout, like any other
// unanswered handshake frame.
func TestSilentServerTimesOut(t *testing.T) {
	mute, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer mute.Close()
	pool := &ServerPool{Servers: []PoolServer{{Addr: mute.LocalAddr().String(), UplinkMbps: 100}}}
	probe, err := NewUDPProbeContext(context.Background(), pool, rand.New(rand.NewSource(13)))
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Finish(0, 0)
	err = probe.SetRate(10)
	if !errors.Is(err, errdefs.ErrProbeTimeout) || !errors.Is(err, errdefs.ErrNoReachableServer) {
		t.Errorf("SetRate against a silent peer = %v, want ErrProbeTimeout under ErrNoReachableServer", err)
	}
	hellos := 0
	buf := make([]byte, 256)
	_ = mute.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	for {
		n, _, err := mute.ReadFromUDP(buf)
		if err != nil {
			break
		}
		var h wire.Hello
		if h.Decode(buf[:n]) == nil {
			hellos++
		}
	}
	if hellos != core.HandshakeAttempts {
		t.Errorf("silent peer saw %d Hellos, want the handshake budget (%d)", hellos, core.HandshakeAttempts)
	}
}

// TestHandshakeStateDiesWithSession: the per-session handshake counter a
// fault plan keeps is dropped when the session retires, so a long-running
// fault-injecting server does not accumulate one entry per test. The Setups
// land inside the drop window, so some are retransmits of dropped ones.
func TestHandshakeStateDiesWithSession(t *testing.T) {
	plan := &faults.Plan{Faults: []faults.Fault{
		{Kind: faults.HandshakeDrop, Server: 0, AtMS: 0, DurationMS: 1, Prob: 0.5},
	}}
	s, sink := stepServer(t, ServerConfig{Faults: &faults.Binding{Inj: plan.Injector(), Server: 0}})
	peer := testPeer(0)
	setup := wire.Setup{SessionID: 77}
	for attempt := 0; count(sink.take(), peer, wire.TypeSetupAck) == 0; attempt++ {
		if attempt == 10 {
			t.Fatal("no SetupAck in 10 attempts")
		}
		s.step(identityBase, from(peer, setup.AppendTo(nil)))
	}
	if n := len(s.hsAttempts); n != 1 {
		t.Fatalf("handshake counters held = %d, want 1", n)
	}
	bye := wire.Bye{SessionID: 77}
	s.step(identityBase, from(peer, bye.AppendTo(nil)))
	if n := count(sink.take(), peer, wire.TypeByeAck); n != 1 {
		t.Errorf("ByeAcks = %d, want 1", n)
	}
	if n := len(s.hsAttempts); n != 0 {
		t.Errorf("handshake counters held after Bye = %d, want 0", n)
	}
}

// TestHandshakeStateBounded: with a fault plan bound, session IDs that are
// never admitted leave no lasting handshake state. 10 000 distinct IDs send
// one Setup each, 1 ms apart. Dropped ones age out, so the table never holds
// more than the live session and the Setups of the last 2·handshakeForget
// (2 001 IDs); refused ones go at their SetupReject, so it holds none.
func TestHandshakeStateBounded(t *testing.T) {
	const ids, gap = 10000, time.Millisecond
	// Setups from 1 ms on are dropped; the session opened at 0 is admitted.
	dropAfterOpen := &faults.Plan{Faults: []faults.Fault{{Kind: faults.HandshakeDrop, Server: 0, AtMS: 1}}}
	dropNever := &faults.Plan{Faults: []faults.Fault{{Kind: faults.HandshakeDrop, Server: 0, AtMS: 1e9}}}
	for _, tc := range []struct {
		name  string
		cfg   ServerConfig
		reply wire.Type // what every Setup is answered with; 0 for nothing
		bound int
	}{
		{"dropped", ServerConfig{IdleTimeout: time.Minute, Faults: &faults.Binding{Inj: dropAfterOpen.Injector(), Server: 0}},
			0, 1 + int(2*handshakeForget/gap) + 1},
		{"rejected", ServerConfig{AuthKey: 0xfeed, Faults: &faults.Binding{Inj: dropNever.Injector(), Server: 0}},
			wire.TypeSetupReject, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, sink := stepServer(t, tc.cfg)
			peer := testPeer(0)
			live := 0
			if tc.cfg.AuthKey == 0 {
				stepOpen(t, s, identityBase, 1, peer, 1000, 0)
				live = 1
			}
			sink.take()
			now, most := identityBase, 0
			for i := range ids {
				now = now.Add(gap)
				setup := wire.Setup{SessionID: 1000 + uint64(i)}
				s.step(now, from(peer, setup.AppendTo(nil)))
				most = max(most, len(s.hsAttempts))
				if tc.reply != 0 && count(sink.take(), peer, tc.reply) != 1 {
					t.Fatalf("Setup %d was not answered with a %v", i, tc.reply)
				}
			}
			sink.take()
			if most > tc.bound {
				t.Errorf("handshake table peaked at %d entries for %d never-admitted IDs, want ≤ %d", most, ids, tc.bound)
			}
			// Long after the last of them, a retransmitted Setup of the
			// live session finds only that session's entry, still counting.
			now = now.Add(2 * handshakeForget)
			setup := wire.Setup{SessionID: 1}
			s.step(now, from(peer, setup.AppendTo(nil)))
			if n := len(s.hsAttempts); n != live {
				t.Errorf("handshake entries after the IDs went quiet = %d, want %d (the live session's)", n, live)
			}
			if got := s.hsAttempts[1].attempts; live == 1 && got != 2 {
				t.Errorf("live session's Setups counted = %d, want 2", got)
			}
		})
	}
}
