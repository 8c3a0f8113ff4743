package transport

import (
	"bytes"
	"net"
	"testing"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/faults"
	"github.com/mobilebandwidth/swiftest/internal/obs"
	"github.com/mobilebandwidth/swiftest/internal/transport/batchio"
	"github.com/mobilebandwidth/swiftest/internal/wire"
)

// sentMsg is one datagram a stepped server handed to its sender.
type sentMsg struct {
	to  string
	pkt []byte
}

// captureConn is a batchio.Conn that records what the server sends instead
// of writing it; it never receives.
type captureConn struct{ sent []sentMsg }

func (c *captureConn) SendBatch(msgs []batchio.Message) (int, error) {
	for _, m := range msgs {
		c.sent = append(c.sent, sentMsg{to: m.Addr.String(), pkt: bytes.Clone(m.Buf)})
	}
	return len(msgs), nil
}

func (c *captureConn) RecvBatch([]batchio.Message) (int, error) { return 0, net.ErrClosed }

// take returns what the server sent since the last take.
func (c *captureConn) take() []sentMsg {
	out := c.sent
	c.sent = nil
	return out
}

// count reports how many of msgs went to peer as frames of type typ.
func count(msgs []sentMsg, peer *net.UDPAddr, typ wire.Type) int {
	n := 0
	for _, m := range msgs {
		if _, got, err := wire.PeekVersion(m.pkt); err == nil && got == typ && m.to == peer.String() {
			n++
		}
	}
	return n
}

// unstartedServer builds a server on a loopback socket without its run loop:
// the test steps it with a clock that starts at identityBase.
func unstartedServer(tb testing.TB, cfg ServerConfig) *Server {
	tb.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		tb.Fatal(err)
	}
	s := newServer(conn, cfg)
	s.started = identityBase
	tb.Cleanup(func() { s.Close() })
	return s
}

// stepServer is an unstarted server whose sends land in the returned
// capture, one message per datagram.
func stepServer(tb testing.TB, cfg ServerConfig) (*Server, *captureConn) {
	s := unstartedServer(tb, cfg)
	sink := &captureConn{}
	s.bio, s.gso = sink, false
	return s, sink
}

// testPeer is a client address no real socket owns.
func testPeer(i int) *net.UDPAddr {
	return &net.UDPAddr{IP: net.IPv4(10, 0, 0, byte(i+1)), Port: 40000 + i}
}

// from wraps pkt as one datagram received from peer.
func from(peer *net.UDPAddr, pkt []byte) []batchio.Message {
	return []batchio.Message{{Buf: pkt, N: len(pkt), Addr: peer}}
}

// stepOpen opens session id through a Setup step and a DataOpen step at now,
// both channels on peer.
func stepOpen(tb testing.TB, s *Server, now time.Time, id uint64, peer *net.UDPAddr, rateKbps, caps uint32) {
	tb.Helper()
	setup := wire.Setup{SessionID: id, RateKbps: rateKbps, Caps: caps}
	s.step(now, from(peer, setup.AppendTo(nil)))
	do := wire.DataOpen{SessionID: id}
	s.step(now, from(peer, do.AppendTo(nil)))
	if sess := s.byID[id]; sess == nil || sess.peer == nil {
		tb.Fatalf("session %d did not open", id)
	}
}

// stepUntil steps s with no inbound datagrams once per pacing interval
// after now up to until, and returns the last instant stepped.
func stepUntil(s *Server, now, until time.Time) time.Time {
	for next := now.Add(paceInterval); !next.After(until); next = next.Add(paceInterval) {
		s.step(next, nil)
		now = next
	}
	return now
}

// TestStepWakeUp pins the step's contract with its run loop: no wake-up while
// idle, the next tick while a session lives, a held-back pong's due time
// when that comes first, and the tick grid kept across a late wake-up.
func TestStepWakeUp(t *testing.T) {
	plan := &faults.Plan{Faults: []faults.Fault{{Kind: faults.PongDelay, Server: 0, AtMS: 0, DelayMS: 2}}}
	s, sink := stepServer(t, ServerConfig{Faults: &faults.Binding{Inj: plan.Injector(), Server: 0}})
	peer := testPeer(0)
	now := identityBase

	ping := wire.Ping{Seq: 1}
	if wake := s.step(now, from(peer, ping.AppendTo(nil))); !wake.Equal(now.Add(2 * time.Millisecond)) {
		t.Fatalf("wake-up with a pong held back 2 ms = %v, want +2ms", wake.Sub(now))
	}
	if n := len(sink.take()); n != 0 {
		t.Fatalf("a held-back pong went out at once (%d frames)", n)
	}
	if wake := s.step(now.Add(2*time.Millisecond), nil); !wake.IsZero() {
		t.Errorf("idle server asked to wake at %v", wake.Sub(now))
	}
	if n := count(sink.take(), peer, wire.TypePong); n != 1 {
		t.Errorf("pongs after the delay = %d, want 1", n)
	}
	now = now.Add(2 * time.Millisecond)

	stepOpen(t, s, now, 1, peer, 1000, 0)
	if wake := s.step(now, nil); !wake.Equal(now.Add(paceInterval)) {
		t.Errorf("wake-up with a session live = %v, want one tick", wake.Sub(now))
	}
	late := now.Add(paceInterval + time.Millisecond)
	if wake := s.step(late, nil); !wake.Equal(now.Add(2 * paceInterval)) {
		t.Errorf("wake-up after a 1 ms late tick = %v, want the grid's next tick", wake.Sub(now))
	}
	bye := wire.Bye{SessionID: 1}
	if wake := s.step(late, from(peer, bye.AppendTo(nil))); !wake.IsZero() {
		t.Errorf("server idle after the Bye asked to wake at %v", wake.Sub(now))
	}
}

// TestLateStepBoundsSendPool pins that a step owing two ticks of traffic at
// a high rate — 134 super-buffers per session — sends it all, in sequence
// order, while the send pool never holds more than stepBufs buffers (plus
// one partly filled per session): how late the server once ran does not
// decide how much memory it keeps.
func TestLateStepBoundsSendPool(t *testing.T) {
	const sessions, rateKbps = 2, 6_400_000
	s, sink := stepServer(t, ServerConfig{UplinkMbps: 100_000})
	peer := testPeer(0)
	now := identityBase
	for i := range sessions {
		stepOpen(t, s, now, uint64(i+1), peer, rateKbps, 0)
	}
	now = now.Add(paceInterval)
	s.step(now, nil) // the first tick starts each session's budget clock
	sink.take()
	s.step(now.Add(10*paceInterval), nil)

	want := int(2 * paceInterval.Seconds() * rateKbps * 1e3 / 8 / DatagramSize)
	next := map[uint64]uint32{}
	for _, m := range sink.take() {
		var d wire.Data2
		if d.Decode(m.pkt) != nil {
			continue
		}
		if d.Seq != next[d.SessionID]+1 {
			t.Fatalf("session %d: datagram %d after %d", d.SessionID, d.Seq, next[d.SessionID])
		}
		next[d.SessionID] = d.Seq
	}
	for id := uint64(1); id <= sessions; id++ {
		if got := int(next[id]); got != want {
			t.Errorf("session %d: the late step sent %d datagrams, want two ticks' %d", id, got, want)
		}
	}
	if grown := s.pool.grown.Load(); grown > stepBufs+sessions {
		t.Errorf("send pool grew by %d buffers, want at most %d", grown, stepBufs+sessions)
	}
}

// fuzzPlan acts out every fault kind the server knows within the first
// 1.2 s of a fuzzed schedule.
func fuzzPlan() *faults.Plan {
	return &faults.Plan{Seed: 3, Faults: []faults.Fault{
		{Kind: faults.PongDelay, Server: 0, AtMS: 0, DurationMS: 300, DelayMS: 20},
		{Kind: faults.PongDup, Server: 0, AtMS: 300, DurationMS: 300, Dups: 2},
		{Kind: faults.HandshakeDrop, Server: 0, AtMS: 100, DurationMS: 300, Prob: 0.5},
		{Kind: faults.BurstLoss, Server: 0, AtMS: 0, DurationMS: 1000, Prob: 0.3},
		{Kind: faults.RateCap, Server: 0, AtMS: 500, DurationMS: 400, CapMbps: 3},
		{Kind: faults.Blackout, Server: 0, AtMS: 1000, DurationMS: 200},
	}}
}

// Fuzz schedule frame kinds, (ctl>>2)%7.
const (
	fzHello = iota
	fzSetup
	fzDataOpen
	fzRate2
	fzBye
	fzPing
	fzRaw
)

// fuzzEvent encodes one schedule record of FuzzServerStep.
func fuzzEvent(advMS, peer, kind, id, arg byte) []byte {
	return []byte{advMS, peer | kind<<2, id, arg}
}

// FuzzServerStep feeds a stepped server a schedule of datagrams and checks
// its invariants after every step. Each 4-byte record is (advance, ctl, id,
// arg): the clock moves advance ms — 0 joins the previous datagram's batch
// — stepping every wake-up the server asks for on the way, like its run loop;
// ctl&3 picks one of four peers and (ctl>>2)%7 the frame: Hello, Setup
// (arg Mbps, CapReports when arg is odd), DataOpen, Rate2 (arg Mbps, seq
// id>>2), Bye, Ping, or raw bytes (a header of type id and arg%32 bytes).
// Session frames name session id&3+1. faulty binds a plan with every fault
// kind.
func FuzzServerStep(f *testing.F) {
	var life, crowd, faulty []byte
	for _, e := range [][]byte{
		fuzzEvent(0, 0, fzHello, 0, 0), fuzzEvent(1, 0, fzSetup, 0, 21), fuzzEvent(0, 1, fzDataOpen, 0, 0),
		fuzzEvent(30, 0, fzRate2, 1<<2, 35), fuzzEvent(2, 0, fzRate2, 0, 90), fuzzEvent(40, 2, fzPing, 0, 0),
		fuzzEvent(60, 0, fzBye, 0, 0), fuzzEvent(5, 1, fzDataOpen, 0, 0), fuzzEvent(3, 3, fzRaw, 7, 9),
	} {
		life = append(life, e...)
	}
	for _, e := range [][]byte{
		fuzzEvent(0, 0, fzSetup, 0, 40), fuzzEvent(0, 1, fzSetup, 0, 40), fuzzEvent(0, 1, fzSetup, 1, 40),
		fuzzEvent(0, 2, fzSetup, 2, 255), fuzzEvent(1, 0, fzDataOpen, 0, 0), fuzzEvent(0, 1, fzDataOpen, 1, 0),
		fuzzEvent(0, 2, fzDataOpen, 2, 0), fuzzEvent(50, 1, fzRate2, 1<<2|1, 255), fuzzEvent(255, 0, fzRate2, 1<<2, 1),
		fuzzEvent(0, 2, fzBye, 2, 0), fuzzEvent(0, 2, fzSetup, 2, 10), fuzzEvent(255, 3, fzPing, 0, 0),
	} {
		crowd = append(crowd, e...)
	}
	for _, e := range [][]byte{
		fuzzEvent(0, 0, fzPing, 0, 0), fuzzEvent(120, 0, fzSetup, 0, 30), fuzzEvent(0, 0, fzSetup, 0, 30),
		fuzzEvent(0, 0, fzSetup, 0, 30), fuzzEvent(1, 0, fzDataOpen, 0, 0), fuzzEvent(250, 1, fzPing, 0, 0),
		fuzzEvent(0, 1, fzPing, 0, 0), fuzzEvent(200, 0, fzRate2, 1<<2, 20), fuzzEvent(250, 0, fzPing, 0, 0),
		fuzzEvent(200, 0, fzSetup, 1, 5), fuzzEvent(0, 0, fzDataOpen, 1, 0), fuzzEvent(255, 0, fzBye, 1, 0),
	} {
		faulty = append(faulty, e...)
	}
	f.Add(false, life)
	f.Add(false, crowd)
	f.Add(true, faulty)
	f.Add(true, crowd)
	f.Fuzz(func(t *testing.T, withFaults bool, schedule []byte) {
		if len(schedule) > 4*64 {
			schedule = schedule[:4*64]
		}
		const uplinkMbps = 50
		reg := obs.NewRegistry()
		cfg := ServerConfig{UplinkMbps: uplinkMbps, IdleTimeout: 150 * time.Millisecond, Metrics: reg}
		if withFaults {
			cfg.Faults = &faults.Binding{Inj: fuzzPlan().Injector(), Server: 0}
		}
		s, sink := stepServer(t, cfg)
		active := reg.Gauge("swiftest_server_sessions_active", "")

		now, wake := identityBase, time.Time{}
		step := func(at time.Time, in []batchio.Message) {
			wake = s.step(at, in)
			n := s.ActiveSessions()
			if gauge := active.Value(); n != len(s.byID) || n != len(s.order) || float64(n) != gauge {
				t.Fatalf("ActiveSessions %d, table %d, order %d, gauge %g", n, len(s.byID), len(s.order), gauge)
			}
			var granted uint64
			for _, sess := range s.order {
				if s.byID[sess.id] != sess {
					t.Fatalf("session %d in the pacing order but not the table", sess.id)
				}
				granted += uint64(sess.rateKbps)
			}
			if granted > uplinkMbps*1000 {
				t.Fatalf("granted %d kbit/s over a %d Mbit/s uplink", granted, uplinkMbps)
			}
			for _, m := range sink.take() {
				var d wire.Data2
				if d.Decode(m.pkt) != nil {
					continue
				}
				sess := s.byID[d.SessionID]
				if sess == nil {
					t.Fatalf("paced a datagram to retired session %d", d.SessionID)
				}
				if m.to != sess.peer.String() {
					t.Fatalf("session %d paced to %s, its data channel is %s", d.SessionID, m.to, sess.peer)
				}
			}
		}
		// advanceTo steps every wake-up the server asks for before at.
		advanceTo := func(at time.Time) {
			for !wake.IsZero() && wake.Before(at) {
				step(wake, nil)
			}
			now = at
		}

		var in []batchio.Message
		for len(schedule) >= 4 {
			adv, ctl, id, arg := schedule[0], schedule[1], schedule[2], schedule[3]
			schedule = schedule[4:]
			if (adv > 0 || len(in) == recvBatch) && len(in) > 0 {
				step(now, in)
				in = nil
			}
			advanceTo(now.Add(time.Duration(adv) * time.Millisecond))

			sid := uint64(id&3) + 1
			var pkt []byte
			switch (ctl >> 2) % 7 {
			case fzHello:
				h := wire.Hello{MinVersion: wire.Version2, MaxVersion: wire.Version2, Caps: wire.CapReports, Nonce: uint64(arg)}
				pkt = h.AppendTo(nil)
			case fzSetup:
				setup := wire.Setup{SessionID: sid, RateKbps: uint32(arg) * 1000, Caps: uint32(arg&1) * wire.CapReports}
				pkt = setup.AppendTo(nil)
			case fzDataOpen:
				do := wire.DataOpen{SessionID: sid}
				pkt = do.AppendTo(nil)
			case fzRate2:
				r := wire.Rate2{SessionID: sid, RateKbps: uint32(arg) * 1000, Seq: uint32(id >> 2)}
				pkt = r.AppendTo(nil)
			case fzBye:
				bye := wire.Bye{SessionID: sid, ResultKbps: uint32(arg) * 1000}
				pkt = bye.AppendTo(nil)
			case fzPing:
				ping := wire.Ping{Seq: uint32(arg)}
				pkt = ping.AppendTo(nil)
			default:
				pkt = append([]byte{0x57, 0x54, wire.Version + arg&1, id}, make([]byte, arg%32)...)
			}
			in = append(in, from(testPeer(int(ctl&3)), pkt)...)
		}
		if len(in) > 0 {
			step(now, in)
		}
		// Left alone, every session is reaped and the server goes idle.
		advanceTo(now.Add(cfg.IdleTimeout + 2*paceInterval + time.Second))
		if n := s.ActiveSessions(); n != 0 || !wake.IsZero() {
			t.Fatalf("idle server holds %d sessions and wakes at %v", n, wake)
		}
	})
}
