// Package transport implements Swiftest's probing protocol over real UDP
// sockets: a test server that paces probe datagrams at a client-controlled
// rate, and a client probe that plugs into the core engine (core.Probe).
//
// This is the deployable counterpart of core.SimProbe, the emulated server
// pool on a virtual-time link: the same engine logic (package core) drives
// both, so experiments validated on the emulator carry over to the wire. The server is intentionally cheap — a
// batched read loop plus one pacing-wheel goroutine shared by every active
// test — matching the paper's point that Swiftest runs on small 100 Mbps
// budget VMs (§5.2/§5.3). The wire hot path is built on package batchio:
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

// recvBatch is how many datagrams the server's read loop accepts per
// syscall on the batched path.
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
	// startedAt, when non-zero, pins the server's epoch — the base for
	// fault-plan times and datagram timestamps. Test-only (unexported):
	// scripted wheel schedules set it before the read loop starts so the
	// override never races a live packet.
	startedAt time.Time
}

// Server is a Swiftest UDP test server.
type Server struct {
	conn    *net.UDPConn
	bio     batchio.Conn
	gso     bool // kernel splits super-buffers into DatagramSize segments
	pool    *bufPool
	cfg     ServerConfig
	wg      sync.WaitGroup
	closed  atomic.Bool
	metrics serverMetrics
	started time.Time

	wheelStop chan struct{}

	mu         sync.Mutex
	byID       map[uint64]*session // sessions by session ID; guarded by mu
	order      []*session          // registration order, for deterministic wheel iteration; guarded by mu
	hsAttempts map[uint64]int      // Setup datagrams seen per session ID, for fault draws; guarded by mu

	// Wheel-goroutine scratch, reused every tick so the steady state runs at
	// 0 allocs/packet.
	active  []*session
	msgs    []batchio.Message
	msgBufs []*pktBuf
	bufs    []*pktBuf

	// ctl is the read loop's single-message scratch for control replies.
	ctl [1]batchio.Message

	bytesSent atomic.Int64
}

// session is one test in flight. Both of its channels arrive on the one
// server socket — the split is on the client, which uses two sockets so
// probe floods never queue behind control traffic. The server tells them
// apart by session ID: Setup registers the session under the control-channel
// address, DataOpen (sent from the client's data socket, hence a different
// source port) binds the pacing destination.
type session struct {
	// Identity, immutable after creation.
	id       uint64       // session ID, the key both channels share
	caps     uint32       // active capability set
	ctrlPeer *net.UDPAddr // control-channel address (reports, acks)

	// peer is the address probe datagrams are paced to. Sessions publish
	// with nil and store the data-channel address when the client's
	// DataOpen arrives, hence the atomic — the wheel skips the session
	// until the pointer lands.
	peer     atomic.Pointer[net.UDPAddr]
	rateKbps atomic.Uint32
	rateSeq  atomic.Uint32
	lastSeen atomic.Int64 // unix nanos
	retired  atomic.Bool  // exactly-once wheel deregistration

	// Pacing state, owned by the wheel goroutine after publication.
	seq        uint32
	carryBytes float64
	lastTick   time.Time
	// Per-interval report state, wheel-owned: cumulative paced traffic and
	// the cadence cursor for CapReports.
	sentBytes     uint64
	sentDatagrams uint32
	reportSeq     uint32
	lastReport    time.Time
}

// NewServer starts a server on addr (e.g. "127.0.0.1:0"). Close releases it.
//
//lint:allow ctxflow the read loop's lifetime is bounded by Close, the standard lifecycle for long-lived servers
func NewServer(addr string, cfg ServerConfig) (*Server, error) {
	return newServer(addr, cfg, true)
}

// newServer is NewServer with the pacing wheel optionally left unstarted, so
// deterministic tests can drive advance with a scripted clock.
//
//lint:allow ctxflow the read loop's lifetime is bounded by Close, the standard lifecycle for long-lived servers
func newServer(addr string, cfg ServerConfig, startWheel bool) (*Server, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: resolving %q: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listening on %q: %w", addr, err)
	}
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
		hsAttempts: make(map[uint64]int),
		started:    time.Now(),
		wheelStop:  make(chan struct{}),
	}
	if !cfg.startedAt.IsZero() {
		s.started = cfg.startedAt
	}
	if cfg.Wire == WireAuto && batchio.Batched(s.bio) &&
		batchio.MaxSegments(DatagramSize) >= segsPerBuf {
		s.gso = batchio.SetSegmentSize(conn, DatagramSize) == nil
	}
	s.metrics = newServerMetrics(cfg.Metrics)
	s.metrics.uplinkMbps.Set(cfg.UplinkMbps)
	s.wg.Add(1)
	go s.readLoop()
	if startWheel {
		s.wg.Add(1)
		go s.wheelLoop()
	}
	return s, nil
}

// Addr reports the server's bound UDP address.
func (s *Server) Addr() *net.UDPAddr { return s.conn.LocalAddr().(*net.UDPAddr) }

// BytesSent reports cumulative probe bytes sent, for utilization accounting.
func (s *Server) BytesSent() int64 { return s.bytesSent.Load() }

// ActiveSessions reports the number of in-flight tests.
func (s *Server) ActiveSessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byID)
}

// Close stops the server and retires all sessions.
func (s *Server) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	close(s.wheelStop)
	err := s.conn.Close()
	s.mu.Lock()
	live := append([]*session(nil), s.order...)
	s.mu.Unlock()
	for _, sess := range live {
		s.retire(sess)
	}
	s.wg.Wait()
	return err
}

func (s *Server) logf(msg string, args ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Info(msg, args...)
	}
}

// elapsed is the fault plan's time base: wall time since the server started.
func (s *Server) elapsed() time.Duration { return time.Since(s.started) }

// BlackedOut reports whether the server's fault plan has it blacked out
// right now. The fleet heartbeat loop (cmd/swiftest serve -register) gates
// beats on this, so an injected blackout silences the control plane exactly
// when it silences the data plane and the dispatcher's K-silent-windows rule
// marks the server dead — the same detector, both worlds.
func (s *Server) BlackedOut() bool { return s.cfg.Faults.Blackout(s.elapsed()) }

// cloneUDPAddr copies a peer address out of reused receive-batch storage so
// it can be stored or used after the read loop recycles the batch.
func cloneUDPAddr(a *net.UDPAddr) *net.UDPAddr {
	return &net.UDPAddr{IP: append(net.IP(nil), a.IP...), Port: a.Port, Zone: a.Zone}
}

// sameUDPAddr reports whether a and b name the same socket address.
func sameUDPAddr(a, b *net.UDPAddr) bool {
	return a.Port == b.Port && a.Zone == b.Zone && a.IP.Equal(b.IP)
}

func (s *Server) readLoop() {
	defer s.wg.Done()
	msgs := make([]batchio.Message, recvBatch)
	for i := range msgs {
		msgs[i].Buf = make([]byte, 2048)
		msgs[i].Addr = &net.UDPAddr{IP: make(net.IP, 16)}
	}
	out := make([]byte, 0, 64)
	for {
		n, err := s.bio.RecvBatch(msgs)
		if err != nil {
			if s.closed.Load() {
				return
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return
		}
		for i := 0; i < n; i++ {
			out = s.handlePacket(msgs[i].Buf[:msgs[i].N], msgs[i].Addr, out)
		}
	}
}

// handlePacket dispatches one inbound datagram. peer points into reused
// batch storage: handlers that keep it beyond this call clone it. out is the
// reply scratch buffer, returned so the read loop can keep reusing it. Every
// Decode checks the frame's version byte, so a type value arriving under the
// wrong version — a retired frame, say — decodes as nothing and is dropped.
func (s *Server) handlePacket(pkt []byte, peer *net.UDPAddr, out []byte) []byte {
	_, typ, err := wire.PeekVersion(pkt)
	if err != nil {
		return out // not ours; drop silently
	}
	if s.cfg.Faults.Blackout(s.elapsed()) {
		// A blacked-out server is dead to the world: every inbound
		// datagram vanishes, exactly like a crashed process.
		s.metrics.faultsInjected.Inc()
		return out
	}
	out = out[:0]
	switch typ {
	case wire.TypePing:
		var ping wire.Ping
		if ping.Decode(pkt) == nil {
			s.metrics.pings.Inc()
			pong := wire.Pong{Seq: ping.Seq, EchoNS: ping.SentNS}
			out = pong.AppendTo(out)
			s.sendPong(out, peer)
		}

	case wire.TypeHello:
		// Answered from the frame alone: the client carries the capability
		// set back in its Setup, so a Hello — spoofable, unauthenticated —
		// leaves no state behind.
		var h wire.Hello
		if h.Decode(pkt) != nil {
			return out
		}
		if h.MinVersion > wire.Version2 || h.MaxVersion < wire.Version2 {
			return out // no common version; the client gives up
		}
		ack := wire.HelloAck{Version: wire.Version2, Caps: h.Caps & wire.ServerCaps, Nonce: h.Nonce}
		out = ack.AppendTo(out)
		s.sendControl(out, peer)

	case wire.TypeSetup:
		var setup wire.Setup
		if setup.Decode(pkt) == nil {
			out = s.handleSetup(&setup, peer, out)
		}

	case wire.TypeDataOpen:
		var do wire.DataOpen
		if do.Decode(pkt) != nil {
			return out
		}
		sess := s.lookup(do.SessionID)
		if sess == nil {
			return out // no such session; the client's setup never landed
		}
		// Re-binds are idempotent (DataOpen retransmits) and also cover a
		// client whose NAT rebound the data socket mid-handshake.
		sess.peer.Store(cloneUDPAddr(peer))
		sess.lastSeen.Store(time.Now().UnixNano())
		ack := wire.DataOpenAck{SessionID: do.SessionID}
		out = ack.AppendTo(out)
		s.sendControl(out, peer)

	case wire.TypeRate2:
		var r wire.Rate2
		if r.Decode(pkt) != nil {
			return out
		}
		if sess := s.lookup(r.SessionID); sess != nil {
			s.applyRate(sess, r.RateKbps, r.Seq)
		}

	case wire.TypeBye:
		var bye wire.Bye
		if bye.Decode(pkt) != nil {
			return out
		}
		s.handleBye(&bye, peer)
		// Always ack, even for an unknown or already-retired session — the
		// client may be retransmitting a Bye whose first ack was lost.
		ack := wire.ByeAck{SessionID: bye.SessionID}
		out = ack.AppendTo(out)
		s.sendControl(out, peer)
	}
	return out
}

// lookup resolves a session ID; nil when no such session is live.
func (s *Server) lookup(id uint64) *session {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.byID[id]
}

// sendControl routes one control datagram through the batch sender, the
// single code path for every server wire send: a failed write increments
// send-errors instead of vanishing. Control messages are shorter than the
// offload segment size, so an offload-enabled socket sends them unchanged.
// Read-loop goroutine only (it reuses the ctl scratch).
func (s *Server) sendControl(out []byte, peer *net.UDPAddr) {
	s.ctl[0] = batchio.Message{Buf: out, Addr: peer}
	if _, err := s.bio.SendBatch(s.ctl[:]); err != nil && !s.closed.Load() {
		s.metrics.sendErrors.Inc()
	}
}

// sendPong writes a pong, applying any active pong-delay / pong-dup fault.
// The fast path (no fault plan) is one nil check and a direct batched write.
func (s *Server) sendPong(out []byte, peer *net.UDPAddr) {
	act := s.cfg.Faults.Pong(s.elapsed())
	if act.Drop {
		s.metrics.faultsInjected.Inc()
		return
	}
	if act.Delay <= 0 && act.Copies <= 1 {
		s.sendControl(out, peer)
		return
	}
	s.metrics.faultsInjected.Inc()
	// out and peer are reused by the read loop; the delayed send needs
	// copies of both.
	msg := []batchio.Message{{Buf: append([]byte(nil), out...), Addr: cloneUDPAddr(peer)}}
	send := func() {
		for i := 0; i < act.Copies; i++ {
			if _, err := s.bio.SendBatch(msg); err != nil && !s.closed.Load() {
				s.metrics.sendErrors.Inc()
			}
		}
	}
	if act.Delay > 0 {
		time.AfterFunc(act.Delay, send)
		return
	}
	send()
}

// dropHandshake consults the fault plan for one Setup datagram, numbering
// retransmissions per session ID so probabilistic drops re-draw per attempt.
func (s *Server) dropHandshake(sessionID uint64) bool {
	if s.cfg.Faults == nil {
		return false
	}
	s.mu.Lock()
	attempt := s.hsAttempts[sessionID]
	s.hsAttempts[sessionID] = attempt + 1
	s.mu.Unlock()
	return s.cfg.Faults.DropHandshake(s.elapsed(), attempt)
}

// handleSetup runs session admission — the only way server state for a peer
// comes to exist — and answers with a SetupAck or a SetupReject.
func (s *Server) handleSetup(setup *wire.Setup, peer *net.UDPAddr, out []byte) []byte {
	if s.dropHandshake(setup.SessionID) {
		s.metrics.faultsInjected.Inc()
		return out
	}
	reject := func(code uint8) []byte {
		rej := wire.SetupReject{SessionID: setup.SessionID, Code: code}
		out = rej.AppendTo(out)
		s.sendControl(out, peer)
		return out
	}
	if s.cfg.AuthKey != 0 {
		// Forged and stale tokens share the RejectAuth path: the MAC
		// covers the expiry deadline, so a client cannot stretch a lease
		// by rewriting it.
		expired := setup.Token.ExpiredAt(uint64(time.Now().UnixMilli()))
		if !setup.Token.Verify(s.cfg.AuthKey) || expired {
			s.metrics.authRejects.Inc()
			s.logf("session auth rejected", "peer", peer.String(),
				"session_id", setup.SessionID, "expired", expired)
			return reject(wire.RejectAuth)
		}
	}
	sess := s.admit(setup, peer)
	if sess == nil {
		return reject(wire.RejectBusy)
	}
	ack := wire.SetupAck{
		SessionID:        sess.id,
		Caps:             sess.caps,
		ReportIntervalMS: uint32(reportInterval.Milliseconds()),
	}
	out = ack.AppendTo(out)
	s.sendControl(out, peer)
	return out
}

// admit registers a session and returns it; a duplicate Setup (client
// retransmit) returns the session already running. Nil means the session ID
// belongs to another client.
func (s *Server) admit(setup *wire.Setup, peer *net.UDPAddr) *session {
	s.mu.Lock()
	defer s.mu.Unlock()
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
	}
	granted := s.clampRateLocked(setup.RateKbps, nil)
	if granted < setup.RateKbps {
		s.metrics.rateClamped.Inc()
	}
	sess.rateKbps.Store(granted)
	sess.lastSeen.Store(time.Now().UnixNano())
	s.byID[sess.id] = sess
	s.order = append(s.order, sess)
	s.metrics.sessionsStarted.Inc()
	s.metrics.sessionsActive.Inc()
	s.updatePacedGaugeLocked()
	s.logf("test started", "peer", peer.String(), "session_id", sess.id,
		"rate_mbps", wire.MbpsFromKbps(setup.RateKbps))
	return sess
}

// clampRateLocked limits a session's rate so that the aggregate across all
// sessions stays within the server uplink. except, when non-nil, is the
// session whose rate is being replaced and is left out of the in-use sum.
// Callers hold s.mu.
func (s *Server) clampRateLocked(kbps uint32, except *session) uint32 {
	var inUse float64
	for _, sess := range s.order {
		if sess == except {
			continue
		}
		inUse += wire.MbpsFromKbps(sess.rateKbps.Load())
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
func (s *Server) applyRate(sess *session, kbps, seq uint32) {
	s.mu.Lock()
	clamped := s.clampRateLocked(kbps, sess)
	s.mu.Unlock()
	for {
		cur := sess.rateSeq.Load()
		if seq <= cur && cur != 0 {
			return
		}
		if sess.rateSeq.CompareAndSwap(cur, seq) {
			break
		}
	}
	if clamped < kbps {
		s.metrics.rateClamped.Inc()
	}
	sess.rateKbps.Store(clamped)
	sess.lastSeen.Store(time.Now().UnixNano())
	s.mu.Lock()
	s.updatePacedGaugeLocked()
	s.mu.Unlock()
}

// handleBye retires the session the Bye names and accounts for the client's
// result; an unknown or already-retired session is a no-op (the caller acks
// regardless).
func (s *Server) handleBye(bye *wire.Bye, peer *net.UDPAddr) {
	sess := s.lookup(bye.SessionID)
	if sess == nil || !s.retire(sess) {
		return
	}
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
