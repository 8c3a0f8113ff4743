package transport

import (
	"net"
	"sync"
	"testing"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/obs"
	"github.com/mobilebandwidth/swiftest/internal/wire"
)

// TestVanishedClientIsReaped simulates the field failure mode the idle
// timeout exists for: a client opens a session and then disappears — crash,
// radio loss — without ever sending Bye. The server must reap the session
// after IdleTimeout and account for it in the reap metric.
func TestVanishedClientIsReaped(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := NewServer("127.0.0.1:0", ServerConfig{
		UplinkMbps:  50,
		IdleTimeout: 300 * time.Millisecond,
		Metrics:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Handcrafted wire client: handshake, then vanish. Rate 0 keeps the
	// pacer silent so the socket can close without ICMP-unreachable noise.
	conn, err := net.DialUDP("udp", nil, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	handshake(t, conn, 42, 0, 0)
	if srv.ActiveSessions() != 1 {
		t.Fatalf("active sessions = %d, want 1", srv.ActiveSessions())
	}
	conn.Close() // vanish: no Bye

	deadline := time.Now().Add(5 * time.Second)
	for srv.ActiveSessions() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("session not reaped within 5 s (idle timeout 300 ms)")
		}
		time.Sleep(20 * time.Millisecond)
	}

	snap := reg.Snapshot()
	if got := snap.Counters["swiftest_server_sessions_reaped_total"]; got != 1 {
		t.Errorf("reaped counter = %d, want 1", got)
	}
	if got := snap.Counters["swiftest_server_sessions_finished_total"]; got != 0 {
		t.Errorf("finished counter = %d, want 0 — no Bye was sent", got)
	}
	if got := snap.Counters["swiftest_server_sessions_started_total"]; got != 1 {
		t.Errorf("started counter = %d, want 1", got)
	}
	// The active-sessions gauge must have returned to zero with the reap.
	waitGauge := time.Now().Add(2 * time.Second)
	for {
		if g := reg.Snapshot().Gauges["swiftest_server_sessions_active"]; g == 0 {
			break
		}
		if time.Now().After(waitGauge) {
			t.Fatalf("active gauge stuck at %g", reg.Snapshot().Gauges["swiftest_server_sessions_active"])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestRetireExactlyOnceUnderRace provokes the three-way teardown race the
// wheel's retired flag exists for: an idle reap (wheel tick), a client Bye
// (read loop) and a server Close all try to deregister the same session
// concurrently. Exactly one path may win — the active-sessions gauge must
// land on exactly zero (a double retirement would drive it negative) and at
// most one of the finished/reaped counters may record the exit.
func TestRetireExactlyOnceUnderRace(t *testing.T) {
	for round := 0; round < 25; round++ {
		reg := obs.NewRegistry()
		srv, err := newServer("127.0.0.1:0", ServerConfig{
			IdleTimeout: time.Nanosecond, // any wheel tick reaps immediately
			Metrics:     reg,
		}, false)
		if err != nil {
			t.Fatal(err)
		}
		peer := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 40000 + round}
		sess := addWheelSession(srv, 7, peer, 0)
		sess.lastSeen.Store(time.Now().Add(-time.Hour).UnixNano())

		var wg sync.WaitGroup
		wg.Add(3)
		go func() { defer wg.Done(); srv.advance(time.Now()) }()
		go func() { defer wg.Done(); srv.handleBye(&wire.Bye{SessionID: 7}, peer) }()
		go func() { defer wg.Done(); _ = srv.Close() }()
		wg.Wait()

		if n := srv.ActiveSessions(); n != 0 {
			t.Fatalf("round %d: %d sessions survived a triple teardown", round, n)
		}
		snap := reg.Snapshot()
		if g := snap.Gauges["swiftest_server_sessions_active"]; g != 0 {
			t.Fatalf("round %d: active gauge = %g after teardown, want exactly 0", round, g)
		}
		exits := snap.Counters["swiftest_server_sessions_finished_total"] +
			snap.Counters["swiftest_server_sessions_reaped_total"]
		if exits > 1 {
			t.Fatalf("round %d: %d teardown paths recorded the same session", round, exits)
		}
	}
}

// TestRetiredSessionStopsPacing: after a Bye retires the session, further
// wheel ticks must emit nothing for it even though the tick that raced the
// Bye may still hold it in its snapshot.
func TestRetiredSessionStopsPacing(t *testing.T) {
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	srv, err := newServer("127.0.0.1:0",
		ServerConfig{UplinkMbps: 100, startedAt: identityBase}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	peer := sink.LocalAddr().(*net.UDPAddr)
	addWheelSession(srv, 9, peer, 20000)

	now := identityBase
	for i := 0; i < 10; i++ {
		now = now.Add(paceInterval)
		srv.advance(now)
	}
	before := srv.BytesSent()
	if before == 0 {
		t.Fatal("session never paced")
	}
	srv.handleBye(&wire.Bye{SessionID: 9, ResultKbps: 20000}, peer)
	for i := 0; i < 10; i++ {
		now = now.Add(paceInterval)
		srv.advance(now)
	}
	if after := srv.BytesSent(); after != before {
		t.Errorf("retired session still paced: %d bytes after Bye", after-before)
	}
}
