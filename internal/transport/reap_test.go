package transport

import (
	"net"
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

// TestRetireOnce sends one session down every exit in turn — idle reap,
// client Bye, server Close, and a Bye in the step whose tick would have
// reaped it. Only the first exit counts: the active-sessions gauge lands on
// exactly zero (a double retirement would drive it negative) and one of
// the finished/reaped counters records the exit.
func TestRetireOnce(t *testing.T) {
	for _, byeFirst := range []bool{false, true} {
		reg := obs.NewRegistry()
		s, sink := stepServer(t, ServerConfig{IdleTimeout: 100 * time.Millisecond, Metrics: reg})
		peer := testPeer(0)
		stepOpen(t, s, identityBase, 7, peer, 0, 0)
		overdue := identityBase.Add(time.Second) // past the idle timeout: its tick reaps
		bye := wire.Bye{SessionID: 7}
		if byeFirst {
			s.step(overdue, from(peer, bye.AppendTo(nil)))
		} else {
			s.step(overdue, nil)
			s.step(overdue, from(peer, bye.AppendTo(nil)))
		}
		if n := count(sink.take(), peer, wire.TypeByeAck); n != 1 {
			t.Errorf("bye first %v: ByeAcks = %d, want 1", byeFirst, n)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		if n := s.ActiveSessions(); n != 0 {
			t.Fatalf("bye first %v: %d sessions survived a triple teardown", byeFirst, n)
		}
		snap := reg.Snapshot()
		if g := snap.Gauges["swiftest_server_sessions_active"]; g != 0 {
			t.Fatalf("bye first %v: active gauge = %g after teardown, want exactly 0", byeFirst, g)
		}
		finished := snap.Counters["swiftest_server_sessions_finished_total"]
		reaped := snap.Counters["swiftest_server_sessions_reaped_total"]
		if finished+reaped != 1 || (finished == 1) != byeFirst {
			t.Fatalf("bye first %v: finished %d, reaped %d; want the first exit alone counted", byeFirst, finished, reaped)
		}
	}
}

// TestRetiredSessionStopsPacing: after a Bye retires the session, further
// wheel ticks emit nothing for it.
func TestRetiredSessionStopsPacing(t *testing.T) {
	s, sink := stepServer(t, ServerConfig{UplinkMbps: 100})
	peer := testPeer(0)
	now := identityBase
	stepOpen(t, s, now, 9, peer, 20000, 0)
	now = stepUntil(s, now, now.Add(10*paceInterval))
	before := s.BytesSent()
	if before == 0 {
		t.Fatal("session never paced")
	}
	bye := wire.Bye{SessionID: 9, ResultKbps: 20000}
	s.step(now, from(peer, bye.AppendTo(nil)))
	sink.take()
	stepUntil(s, now, now.Add(10*paceInterval))
	if after := s.BytesSent(); after != before {
		t.Errorf("retired session still paced: %d bytes after Bye", after-before)
	}
	if n := len(sink.take()); n != 0 {
		t.Errorf("retired session got %d datagrams after its Bye", n)
	}
}
