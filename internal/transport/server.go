// Package transport implements Swiftest's probing protocol over real UDP
// sockets: a test server that paces probe datagrams at a client-controlled
// rate, and a client probe that plugs into the core engine (core.Probe).
//
// This is the deployable counterpart of core.SimProbe, the emulated server
// pool on a virtual-time link: the same engine logic (package core) drives
// both, so experiments validated on the emulator carry over to the wire. The
// server is intentionally cheap — one goroutine that steps every session at
// once, (now, datagrams in) → (datagrams out, next wake-up) — matching the
// paper's point that Swiftest runs on small 100 Mbps budget VMs
// (§5.2/§5.3). The wire hot path is built on package batchio:
// many datagrams per syscall (sendmmsg plus UDP segmentation offload where
// the kernel has them) and pooled zero-allocation buffers, with a portable
// one-datagram-per-syscall fallback that emits byte-identical traffic.
//
//lint:allow walltime deployment-side package paced against real sockets; the virtual-time counterpart is core+linksim
package transport

import (
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/core"
	"github.com/mobilebandwidth/swiftest/internal/faults"
	"github.com/mobilebandwidth/swiftest/internal/obs"
	"github.com/mobilebandwidth/swiftest/internal/transport/batchio"
	"github.com/mobilebandwidth/swiftest/internal/wire"
)

// DatagramSize is the probe datagram size (header + padding). Chosen below
// common MTUs to avoid fragmentation.
const DatagramSize = 1200

// paceInterval is the pacing quantum: each interval the wheel emits the
// bytes corresponding to every session's current probing rate.
const paceInterval = 5 * time.Millisecond

// DefaultIdleTimeout reaps sessions whose client vanished without a Bye.
const DefaultIdleTimeout = 10 * time.Second

// recvBatch is how many datagrams the server accepts per wake-up on the
// batched path.
const recvBatch = 16

// WireMode selects the send/receive syscall strategy for a server or probe.
type WireMode int

const (
	// WireAuto uses vectored syscalls and UDP segmentation offload where the
	// platform has them, falling back automatically elsewhere.
	WireAuto WireMode = iota
	// WireFallback forces the portable one-datagram-per-syscall path. The
	// wire traffic is byte-identical to WireAuto — only the syscall count
	// differs — which the batched-vs-fallback property test pins.
	WireFallback
)

// ServerConfig configures a test server.
type ServerConfig struct {
	// UplinkMbps is the server's egress capacity; aggregate pacing across
	// sessions is capped at this rate, mirroring the budget-server pools of
	// §5.2. Zero means 100 Mbps.
	UplinkMbps float64
	// Logger receives operational events; nil disables logging.
	Logger *slog.Logger
	// OnResult, if non-nil, is invoked with each client-reported test
	// result (Mbps) — the feed for periodic bandwidth-model refresh (§5.1).
	OnResult func(mbps float64)
	// IdleTimeout reaps sessions whose client vanished without a Bye; zero
	// selects DefaultIdleTimeout.
	IdleTimeout time.Duration
	// Metrics, when non-nil, receives the server's operational metrics
	// (session lifecycle, pacing, drops, reaps) for Prometheus exposition.
	Metrics *obs.Registry
	// Faults, when non-nil, makes the server act out a fault plan: drop
	// handshakes, fall silent during blackouts, delay or duplicate pongs,
	// lose probe datagrams, clamp pacing. Fault times are elapsed since
	// NewServer. Nil injects nothing; the hooks cost one nil check each.
	Faults *faults.Binding
	// Wire selects the syscall strategy; the zero value (WireAuto) is right
	// for deployments, WireFallback exists for equivalence testing and
	// debugging.
	Wire WireMode
	// AuthKey, when non-zero, requires every session setup to carry an
	// unexpired token minted under this key by the fleet dispatcher
	// (wire.MintToken); setups with absent, forged or stale tokens are
	// rejected with wire.RejectAuth and counted in
	// swiftest_server_auth_rejects_total. Setup is the only frame that
	// creates a session, so a keyed server has no unauthenticated path to
	// paced traffic.
	AuthKey uint64
}

// Server is a Swiftest UDP test server. One goroutine, the run loop NewServer
// starts, owns all session state: it sleeps until a datagram arrives or
// the next pacing tick or delayed pong falls due, then calls step. Only the
// fields other goroutines read are synchronised.
type Server struct {
	conn    *net.UDPConn
	bio     batchio.Conn
	gso     bool // kernel splits super-buffers into DatagramSize segments
	pool    *bufPool
	cfg     ServerConfig
	metrics serverMetrics
	started time.Time // epoch of fault-plan times; fixed before the run loop starts

	wg        sync.WaitGroup // the run loop
	closed    atomic.Bool
	live      atomic.Int64 // len(byID), for ActiveSessions
	bytesSent atomic.Int64

	// Step state, owned by the run loop (by the caller of step on a server
	// without one).
	byID       map[uint64]*session   // sessions by session ID
	order      []*session            // registration order, for deterministic pacing
	hsAttempts map[uint64]setupDraws // Setups seen per session ID, for fault draws
	hsSweep    time.Time             // when never-admitted IDs are next aged out of hsAttempts
	nextTick   time.Time             // when the next pacing tick is due
	pongs      []delayedPong         // pongs a fault plan holds back, in arrival order

	// The step's outbox, reused every step so the steady state runs at
	// 0 allocs/packet: msgs[i] aliases msgBufs[i] (nil for a control frame,
	// which lives in ctl or a delayed pong); bufs holds each pooled buffer's
	// own reference until the flush.
	msgs    []batchio.Message
	msgBufs []*pktBuf
	bufs    []*pktBuf
	ctl     []byte
}

// session is one test in flight. Both of its channels arrive on the one
// server socket — the split is on the client, which uses two sockets so
// probe floods never queue behind control traffic. The server tells them
// apart by session ID: Setup registers the session under the control-channel
// address, DataOpen (sent from the client's data socket, hence a different
// source port) binds the pacing destination.
type session struct {
	id       uint64       // session ID, the key both channels share
	caps     uint32       // active capability set
	ctrlPeer *net.UDPAddr // control-channel address (reports, acks)
	peer     *net.UDPAddr // data-channel address; nil until DataOpen, and nothing is paced before it
	rateKbps uint32
	rateSeq  uint32    // newest Rate2 applied; older ones lose
	lastSeen time.Time // last Setup, DataOpen or Rate2, for the idle reap

	// Pacing state.
	seq        uint32
	carryBytes float64
	lastTick   time.Time
	// Per-interval report state: cumulative paced traffic and the cadence
	// cursor for CapReports.
	sentBytes     uint64
	sentDatagrams uint32
	reportSeq     uint32
	lastReport    time.Time
}

// setupDraws is what a server with a fault plan keeps of one session ID's
// Setups, so that probabilistic drops re-draw per attempt.
type setupDraws struct {
	attempts int       // Setup datagrams seen
	last     time.Time // when the latest arrived
}

// handshakeForget is how long a session ID that was never admitted keeps
// its setupDraws after its last Setup: the client's whole Setup retry budget,
// after which it has given up on the server.
const handshakeForget = core.HandshakeAttempts * handshakeTimeout

// delayedPong is a pong a fault plan holds back until due, with its own
// copies of the frame and the address: the inbound batch it answers is
// reused long before.
type delayedPong struct {
	due    time.Time
	frame  []byte
	peer   *net.UDPAddr
	copies int
}

// NewServer starts a server on addr (e.g. "127.0.0.1:0"). Close releases it.
//
//lint:allow ctxflow the run loop's lifetime is bounded by Close, the standard lifecycle for long-lived servers
func NewServer(addr string, cfg ServerConfig) (*Server, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: resolving %q: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listening on %q: %w", addr, err)
	}
	s := newServer(conn, cfg)
	s.started = time.Now()
	s.wg.Add(1)
	go s.run()
	return s, nil
}

// newServer builds a server on conn without starting its run loop, so tests
// can set started and call step with a scripted clock.
func newServer(conn *net.UDPConn, cfg ServerConfig) *Server {
	if cfg.UplinkMbps <= 0 {
		cfg.UplinkMbps = 100
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = DefaultIdleTimeout
	}
	mode := batchio.ModeAuto
	if cfg.Wire == WireFallback {
		mode = batchio.ModeFallback
	}
	s := &Server{
		conn:       conn,
		bio:        batchio.New(conn, mode),
		pool:       newBufPool(segsPerBuf*DatagramSize, 4),
		cfg:        cfg,
		byID:       make(map[uint64]*session),
		hsAttempts: make(map[uint64]setupDraws),
	}
	if cfg.Wire == WireAuto && batchio.Batched(s.bio) &&
		batchio.MaxSegments(DatagramSize) >= segsPerBuf {
		s.gso = batchio.SetSegmentSize(conn, DatagramSize) == nil
	}
	s.metrics = newServerMetrics(cfg.Metrics)
	s.metrics.uplinkMbps.Set(cfg.UplinkMbps)
	return s
}

// Addr reports the server's bound UDP address.
func (s *Server) Addr() *net.UDPAddr { return s.conn.LocalAddr().(*net.UDPAddr) }

// BytesSent reports cumulative probe bytes sent, for utilization accounting.
func (s *Server) BytesSent() int64 { return s.bytesSent.Load() }

// ActiveSessions reports the number of in-flight tests.
func (s *Server) ActiveSessions() int { return int(s.live.Load()) }

// Close stops the server and retires all sessions: once the run loop
// has exited nothing else touches them.
func (s *Server) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	err := s.conn.Close()
	s.wg.Wait()
	for i := len(s.order) - 1; i >= 0; i-- {
		s.retire(s.order[i])
	}
	return err
}

func (s *Server) logf(msg string, args ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Info(msg, args...)
	}
}

// BlackedOut reports whether the server's fault plan has it blacked out
// right now. The fleet heartbeat loop (cmd/swiftest serve -register) gates
// beats on this, so an injected blackout silences the control plane exactly
// when it silences the data plane and the dispatcher's K-silent-windows rule
// marks the server dead — the same detector, both worlds.
func (s *Server) BlackedOut() bool { return s.cfg.Faults.Blackout(time.Since(s.started)) }

// cloneUDPAddr copies a peer address out of reused receive-batch storage so
// it can be stored or used after the run loop recycles the batch.
func cloneUDPAddr(a *net.UDPAddr) *net.UDPAddr {
	return &net.UDPAddr{IP: append(net.IP(nil), a.IP...), Port: a.Port, Zone: a.Zone}
}

// sameUDPAddr reports whether a and b name the same socket address.
func sameUDPAddr(a, b *net.UDPAddr) bool {
	return a.Port == b.Port && a.Zone == b.Zone && a.IP.Equal(b.IP)
}

// run is the server's one goroutine: it waits for datagrams until the last
// step's wake-up, reads the clock once and steps, until Close closes the
// socket.
func (s *Server) run() {
	defer s.wg.Done()
	in := make([]batchio.Message, recvBatch)
	for i := range in {
		in[i].Buf = make([]byte, 2048)
		in[i].Addr = &net.UDPAddr{IP: make(net.IP, 16)}
	}
	var wake time.Time // zero: no deadline, only a datagram wakes the server
	for {
		_ = s.conn.SetReadDeadline(wake)
		n, err := s.bio.RecvBatch(in)
		if err != nil {
			var ne net.Error
			if !errors.As(err, &ne) || !ne.Timeout() {
				return // the socket closed
			}
		}
		wake = s.step(time.Now(), in[:n])
	}
}

// step advances the server to now: it handles each inbound datagram, runs
// the pacing tick if one is due, queues the delayed pongs that came due, and
// sends everything in one flush (more than one if the tick owed more than
// stepBufs super-buffers). It returns when it must next run even if
// no datagram arrives — the next tick while a session lives, else the
// earliest delayed pong — or zero when only a datagram can wake it. Replies
// may alias in's address storage, which must stay valid until step returns.
func (s *Server) step(now time.Time, in []batchio.Message) (wake time.Time) {
	at := now.Sub(s.started)
	for i := range in {
		s.handlePacket(now, at, in[i].Buf[:in[i].N], in[i].Addr)
	}
	if len(s.order) > 0 && !now.Before(s.nextTick) {
		s.advance(now)
		// Stay on the tick grid when a wake-up runs late; restart it after a
		// stall longer than a tick or an idle spell.
		if s.nextTick = s.nextTick.Add(paceInterval); !s.nextTick.After(now) {
			s.nextTick = now.Add(paceInterval)
		}
	}
	pending := s.pongs[:0]
	for _, p := range s.pongs {
		if now.Before(p.due) {
			pending = append(pending, p)
			continue
		}
		for range p.copies {
			s.queue(p.frame, p.peer)
		}
	}
	s.pongs = pending
	s.flush()

	if len(s.order) > 0 {
		wake = s.nextTick
	}
	for _, p := range s.pongs {
		if wake.IsZero() || p.due.Before(wake) {
			wake = p.due
		}
	}
	return wake
}

// queue adds one control frame for peer to the step's outbox.
func (s *Server) queue(frame []byte, peer *net.UDPAddr) {
	s.msgs = append(s.msgs, batchio.Message{Buf: frame, Addr: peer})
	s.msgBufs = append(s.msgBufs, nil)
}

// reply queues the control frame that ctl, the step's control scratch with
// one frame appended, ends with.
func (s *Server) reply(ctl []byte, peer *net.UDPAddr) {
	s.queue(ctl[len(s.ctl):], peer)
	s.ctl = ctl
}

// handlePacket dispatches one inbound datagram received at now, at after the
// server started. Every Decode checks the frame's version byte, so a type
// value arriving under the wrong version — a retired frame, say — decodes as
// nothing and is dropped.
func (s *Server) handlePacket(now time.Time, at time.Duration, pkt []byte, peer *net.UDPAddr) {
	_, typ, err := wire.PeekVersion(pkt)
	if err != nil {
		return // not ours; drop silently
	}
	if s.cfg.Faults.Blackout(at) {
		// A blacked-out server is dead to the world: every inbound
		// datagram vanishes, exactly like a crashed process.
		s.metrics.faultsInjected.Inc()
		return
	}
	switch typ {
	case wire.TypePing:
		var ping wire.Ping
		if ping.Decode(pkt) == nil {
			s.metrics.pings.Inc()
			s.sendPong(now, at, &wire.Pong{Seq: ping.Seq, EchoNS: ping.SentNS}, peer)
		}

	case wire.TypeHello:
		// Answered from the frame alone: the client carries the capability
		// set back in its Setup, so a Hello — spoofable, unauthenticated —
		// leaves no state behind.
		var h wire.Hello
		if h.Decode(pkt) != nil {
			return
		}
		if h.MinVersion > wire.Version2 || h.MaxVersion < wire.Version2 {
			return // no common version; the client gives up
		}
		ack := wire.HelloAck{Version: wire.Version2, Caps: h.Caps & wire.ServerCaps, Nonce: h.Nonce}
		s.reply(ack.AppendTo(s.ctl), peer)

	case wire.TypeSetup:
		var setup wire.Setup
		if setup.Decode(pkt) == nil {
			s.handleSetup(now, at, &setup, peer)
		}

	case wire.TypeDataOpen:
		var do wire.DataOpen
		if do.Decode(pkt) != nil {
			return
		}
		sess := s.byID[do.SessionID]
		if sess == nil {
			return // no such session; the client's setup never landed
		}
		// Re-binds are idempotent (DataOpen retransmits) and also cover a
		// client whose NAT rebound the data socket mid-handshake.
		sess.peer = cloneUDPAddr(peer)
		sess.lastSeen = now
		ack := wire.DataOpenAck{SessionID: do.SessionID}
		s.reply(ack.AppendTo(s.ctl), peer)

	case wire.TypeRate2:
		var r wire.Rate2
		if r.Decode(pkt) != nil {
			return
		}
		if sess := s.byID[r.SessionID]; sess != nil {
			s.applyRate(now, sess, r.RateKbps, r.Seq)
		}

	case wire.TypeBye:
		var bye wire.Bye
		if bye.Decode(pkt) != nil {
			return
		}
		s.handleBye(&bye, peer)
		// Always ack, even for an unknown or already-retired session — the
		// client may be retransmitting a Bye whose first ack was lost.
		ack := wire.ByeAck{SessionID: bye.SessionID}
		s.reply(ack.AppendTo(s.ctl), peer)
	}
}

// sendPong queues a pong, applying any active pong-delay / pong-dup fault.
// The fast path (no fault plan) is one nil check and one queued frame.
func (s *Server) sendPong(now time.Time, at time.Duration, pong *wire.Pong, peer *net.UDPAddr) {
	act := s.cfg.Faults.Pong(at)
	if act.Drop {
		s.metrics.faultsInjected.Inc()
		return
	}
	if act.Delay <= 0 && act.Copies <= 1 {
		s.reply(pong.AppendTo(s.ctl), peer)
		return
	}
	s.metrics.faultsInjected.Inc()
	s.pongs = append(s.pongs, delayedPong{
		due:    now.Add(act.Delay),
		frame:  pong.AppendTo(nil),
		peer:   cloneUDPAddr(peer),
		copies: act.Copies,
	})
}

// dropHandshake consults the fault plan for one Setup datagram, numbering
// retransmissions per session ID so probabilistic drops re-draw per attempt.
// Once per handshakeForget it ages out the IDs never admitted, so the table
// holds the IDs of live sessions and of Setups from the last two
// handshakeForget periods.
func (s *Server) dropHandshake(now time.Time, at time.Duration, sessionID uint64) bool {
	if s.cfg.Faults == nil {
		return false
	}
	if !now.Before(s.hsSweep) {
		for id, h := range s.hsAttempts {
			if s.byID[id] == nil && now.Sub(h.last) >= handshakeForget {
				delete(s.hsAttempts, id)
			}
		}
		s.hsSweep = now.Add(handshakeForget)
	}
	attempt := s.hsAttempts[sessionID].attempts
	s.hsAttempts[sessionID] = setupDraws{attempts: attempt + 1, last: now}
	return s.cfg.Faults.DropHandshake(at, attempt)
}

// handleSetup runs session admission — the only way server state for a peer
// comes to exist — and answers with a SetupAck or a SetupReject.
func (s *Server) handleSetup(now time.Time, at time.Duration, setup *wire.Setup, peer *net.UDPAddr) {
	if s.dropHandshake(now, at, setup.SessionID) {
		s.metrics.faultsInjected.Inc()
		return
	}
	if s.cfg.AuthKey != 0 {
		// Forged and stale tokens share the RejectAuth path: the MAC
		// covers the expiry deadline, so a client cannot stretch a lease
		// by rewriting it.
		expired := setup.Token.ExpiredAt(uint64(now.UnixMilli()))
		if !setup.Token.Verify(s.cfg.AuthKey) || expired {
			s.metrics.authRejects.Inc()
			s.logf("session auth rejected", "peer", peer.String(),
				"session_id", setup.SessionID, "expired", expired)
			s.reject(setup.SessionID, wire.RejectAuth, peer)
			return
		}
	}
	sess := s.admit(now, setup, peer)
	if sess == nil {
		s.reject(setup.SessionID, wire.RejectBusy, peer)
		return
	}
	ack := wire.SetupAck{
		SessionID:        sess.id,
		Caps:             sess.caps,
		ReportIntervalMS: uint32(reportInterval.Milliseconds()),
	}
	s.reply(ack.AppendTo(s.ctl), peer)
}

// reject answers a Setup for sessionID with a SetupReject. The client gives
// up on a reject, so the ID's setupDraws go too, unless the ID names
// another client's live session.
func (s *Server) reject(sessionID uint64, code uint8, peer *net.UDPAddr) {
	if s.byID[sessionID] == nil {
		delete(s.hsAttempts, sessionID)
	}
	rej := wire.SetupReject{SessionID: sessionID, Code: code}
	s.reply(rej.AppendTo(s.ctl), peer)
}

// admit registers a session and returns it; a duplicate Setup (client
// retransmit) returns the session already running. Nil means the session ID
// belongs to another client.
func (s *Server) admit(now time.Time, setup *wire.Setup, peer *net.UDPAddr) *session {
	if existing := s.byID[setup.SessionID]; existing != nil {
		if sameUDPAddr(existing.ctrlPeer, peer) {
			return existing
		}
		return nil
	}
	sess := &session{
		id:       setup.SessionID,
		caps:     setup.Caps & wire.ServerCaps,
		ctrlPeer: cloneUDPAddr(peer),
		rateKbps: s.clampRate(setup.RateKbps, nil),
		lastSeen: now,
	}
	if sess.rateKbps < setup.RateKbps {
		s.metrics.rateClamped.Inc()
	}
	s.byID[sess.id] = sess
	s.order = append(s.order, sess)
	s.live.Add(1)
	s.metrics.sessionsStarted.Inc()
	s.metrics.sessionsActive.Inc()
	s.updatePacedGauge()
	s.logf("test started", "peer", peer.String(), "session_id", sess.id,
		"rate_mbps", wire.MbpsFromKbps(setup.RateKbps))
	return sess
}

// clampRate limits a session's rate so that the aggregate across all
// sessions stays within the server uplink. except, when non-nil, is the
// session whose rate is being replaced and is left out of the in-use sum.
func (s *Server) clampRate(kbps uint32, except *session) uint32 {
	var inUse float64
	for _, sess := range s.order {
		if sess == except {
			continue
		}
		inUse += wire.MbpsFromKbps(sess.rateKbps)
	}
	free := s.cfg.UplinkMbps - inUse
	if free <= 0 {
		return 0
	}
	if want := wire.MbpsFromKbps(kbps); want > free {
		return wire.KbpsFromMbps(free)
	}
	return kbps
}

// applyRate applies one rate update to a session: stale (reordered) updates
// lose, and the rate is clamped to what the uplink has left.
func (s *Server) applyRate(now time.Time, sess *session, kbps, seq uint32) {
	if seq <= sess.rateSeq && sess.rateSeq != 0 {
		return
	}
	sess.rateSeq = seq
	sess.rateKbps = s.clampRate(kbps, sess)
	if sess.rateKbps < kbps {
		s.metrics.rateClamped.Inc()
	}
	sess.lastSeen = now
	s.updatePacedGauge()
}

// handleBye retires the session the Bye names and accounts for the client's
// result; an unknown or already-retired session is a no-op (the caller acks
// regardless).
func (s *Server) handleBye(bye *wire.Bye, peer *net.UDPAddr) {
	sess := s.byID[bye.SessionID]
	if sess == nil {
		return
	}
	s.retire(sess)
	s.metrics.sessionsFinished.Inc()
	s.metrics.resultMbps.Observe(wire.MbpsFromKbps(bye.ResultKbps))
	if s.cfg.OnResult != nil {
		s.cfg.OnResult(wire.MbpsFromKbps(bye.ResultKbps))
	}
	s.logf("test finished", "peer", peer.String(), "session_id", bye.SessionID,
		"result_mbps", wire.MbpsFromKbps(bye.ResultKbps),
		"trimmed_mbps", wire.MbpsFromKbps(bye.TrimmedKbps),
		"peak_mbps", wire.MbpsFromKbps(bye.PeakKbps),
		"regime", bye.Regime)
}
