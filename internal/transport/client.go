package transport

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/errdefs"
	"github.com/mobilebandwidth/swiftest/internal/estimate"
	"github.com/mobilebandwidth/swiftest/internal/faults"
	"github.com/mobilebandwidth/swiftest/internal/obs"
	"github.com/mobilebandwidth/swiftest/internal/transport/batchio"
	"github.com/mobilebandwidth/swiftest/internal/wire"
)

// PingServerContext measures the round-trip latency to one server with count
// pings and returns the minimum RTT observed, the standard BTS
// server-selection metric (§2). Cancelling ctx stops the ping exchange
// early. Failure to elicit any pong yields an error matching both
// errdefs.ErrProbeTimeout and errdefs.ServerError.
func PingServerContext(ctx context.Context, addr string, count int, timeout time.Duration) (time.Duration, error) {
	if count <= 0 {
		count = 3
	}
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return 0, &errdefs.ServerError{Addr: addr, Op: "ping", Err: err}
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return 0, &errdefs.ServerError{Addr: addr, Op: "ping", Err: err}
	}
	defer conn.Close()

	best := time.Duration(-1)
	buf := make([]byte, 256)
	out := make([]byte, 0, wire.PingLen)
	for i := 0; i < count; i++ {
		if err := ctx.Err(); err != nil {
			if best >= 0 {
				return best, nil // partial measurement still useful
			}
			return 0, &errdefs.ServerError{Addr: addr, Op: "ping",
				Err: fmt.Errorf("%w: %w", errdefs.ErrTestAborted, err)}
		}
		seq := uint32(i + 1)
		ping := wire.Ping{Seq: seq, SentNS: uint64(time.Now().UnixNano())}
		out = ping.AppendTo(out[:0])
		if _, err := conn.Write(out); err != nil {
			return 0, &errdefs.ServerError{Addr: addr, Op: "ping", Err: err}
		}
		deadline := time.Now().Add(timeout)
		if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
			deadline = d
		}
		if err := conn.SetReadDeadline(deadline); err != nil {
			return 0, err
		}
		for {
			n, err := conn.Read(buf)
			if err != nil {
				break // timeout: try the next ping
			}
			var pong wire.Pong
			if pong.Decode(buf[:n]) != nil || pong.Seq != seq {
				continue // stale or foreign datagram
			}
			rtt := time.Duration(uint64(time.Now().UnixNano()) - pong.EchoNS)
			if best < 0 || rtt < best {
				best = rtt
			}
			break
		}
	}
	if best < 0 {
		return 0, &errdefs.ServerError{Addr: addr, Op: "ping",
			Err: fmt.Errorf("no pong within %v: %w", timeout, errdefs.ErrProbeTimeout)}
	}
	return best, nil
}

// ServerPool is the client's view of the deployed test servers: addresses
// with their advertised uplink capacities (§5.1 selects a server set whose
// total uplink slightly exceeds the probing rate).
type ServerPool struct {
	Servers []PoolServer
}

// PoolServer is one test server in the pool.
type PoolServer struct {
	Addr       string
	UplinkMbps float64
	// RTT is filled by RankByLatencyContext.
	RTT time.Duration
}

// rankConcurrency bounds the goroutines RankByLatencyContext fans out, so a huge
// candidate list cannot open hundreds of sockets at once.
const rankConcurrency = 8

// RankByLatencyContext pings all servers concurrently (bounded fan-out) and
// sorts the pool by ascending RTT, dropping unreachable servers. Ties keep
// the caller's original order, so the ranking is deterministic given the RTT
// measurements. It returns an error matching errdefs.ErrNoReachableServer if
// no server responded.
func (p *ServerPool) RankByLatencyContext(ctx context.Context, pingCount int, timeout time.Duration) error {
	candidates := len(p.Servers)
	rtts := make([]time.Duration, candidates)
	errs := make([]error, candidates)
	sem := make(chan struct{}, rankConcurrency)
	var wg sync.WaitGroup
	for i := range p.Servers {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			rtts[i], errs[i] = PingServerContext(ctx, p.Servers[i].Addr, pingCount, timeout)
		}(i)
	}
	wg.Wait()

	// Filter in original order, then stable-sort: equal RTTs preserve the
	// configured order, keeping the ranking reproducible.
	reachable := p.Servers[:0]
	for i, srv := range p.Servers {
		if errs[i] != nil {
			continue
		}
		srv.RTT = rtts[i]
		reachable = append(reachable, srv)
	}
	p.Servers = reachable
	if len(p.Servers) == 0 {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("transport: ranking servers: %w: %w", errdefs.ErrTestAborted, err)
		}
		return fmt.Errorf("transport: %w (tried %d)", errdefs.ErrNoReachableServer, candidates)
	}
	sort.SliceStable(p.Servers, func(i, j int) bool { return p.Servers[i].RTT < p.Servers[j].RTT })
	return nil
}

// uplinkHeadroom over-provisions the selected server set slightly beyond the
// probing rate (§5.1 "slightly exceeds").
const uplinkHeadroom = 1.05

// handshakeAttempts bounds the transmissions of each handshake frame (Hello,
// Setup, DataOpen) per server.
const handshakeAttempts = 5

// handshakeTimeout is the per-attempt wait for the frame's answer.
const handshakeTimeout = 200 * time.Millisecond

// UDPProbe implements core.Probe over real UDP sockets against a pool of
// test servers. It opens one session per server as the requested probing
// rate grows, splitting the rate across sessions in latency order, and fails
// over mid-test: a session that was assigned rate but delivered nothing for
// K consecutive sample windows is declared lost, its share moving to the
// surviving servers.
type UDPProbe struct {
	pool    *ServerPool
	testID  uint64
	started time.Time
	trace   *obs.Trace
	ctx     context.Context

	mu         sync.Mutex
	sessions   []*clientSession // guarded by mu; lost sessions keep their slot
	nextServer int              // next unopened pool index; guarded by mu
	targetMbps float64          // guarded by mu
	used       int              // sessions opened; guarded by mu
	lost       int              // sessions declared dead; guarded by mu
	window     int              // next sample window to report; NextSample writes it under mu

	lostAfter    int   // K zero-byte windows before a session is lost
	lastOpenErr  error // most recent session-open failure; guarded by mu
	lostCounter  *obs.Counter
	retryCounter *obs.Counter

	rateSeq atomic.Uint32
	rxBytes atomic.Int64

	// jitterNs is the RFC 3550-style interarrival jitter estimate in
	// nanoseconds, stored as float64 bits for lock-free updates.
	jitterNs    atomic.Uint64
	lastTransit atomic.Int64 // previous packet's transit time (ns)

	sampleInterval time.Duration
	closed         atomic.Bool

	recvBuf *bufPool // pooled receive buffers, shared across sessions

	token wire.Token // dispatcher-lease auth token carried by every Setup

	// finalEst/finalRegime ride the Bye when set; guarded by mu.
	finalEst    estimate.Estimates
	finalRegime estimate.Regime
}

type clientSession struct {
	conn   *net.UDPConn // data channel: paced probe datagrams, nothing else
	ctrl   *net.UDPConn // control channel: handshake, rate updates, Reports, Bye
	server PoolServer
	probe  *UDPProbe
	done   chan struct{}

	rxBytes  atomic.Int64
	bins     arrivalBins // rxBytes by sample window, in arrival time
	assigned float64     // Mbps currently asked of this server; probe.mu held for access
	lost     bool        // probe.mu held for access
	tracker  *faults.LostTracker

	id         uint64 // session ID, the key both channels share
	caps       uint32 // capability intersection from the SetupAck
	ctrlDone   chan struct{}
	byeAck     chan struct{}
	byeAckOnce sync.Once
	repBytes   atomic.Uint64 // cumulative paced bytes, latest server Report
}

// SampleInterval is the client's sampling period, matching §5.1's 50 ms.
const SampleInterval = 50 * time.Millisecond

// sampleGrace is how long after a window's end NextSample waits before
// reporting it, so the receive loops have read what the kernel already held
// and the batch straddling the edge has paid its share into the window. It
// is also the shortest stretch a batch is spread over: arrivals closer
// together than a scheduling quantum were bunched by a scheduler after the
// bottleneck, not spaced by it.
const sampleGrace = 2 * time.Millisecond

// arrivalBins attributes one session's received bytes to the probe's fixed
// sample windows — window k covers [k, k+1) intervals from the probe's start
// — by arrival time: a batch occupied the bottleneck since the arrival
// before it, so its bytes are spread over that stretch in proportion to each
// window's overlap. A sample is then a property of the traffic, not of when
// the sampling goroutine woke, and is not quantised to whole datagrams.
type arrivalBins struct {
	mu       sync.Mutex
	interval time.Duration
	first    int           // window bins[0] stands for; earlier ones are reported and closed
	bins     []float64     // bytes attributed to windows first, first+1, …
	prev     time.Duration // previous arrival, as an offset from the probe's start
}

// add attributes bytes stamped at offset at to the stretch since the previous
// arrival — no shorter than sampleGrace, no longer than one interval (silence
// is not occupancy) — clipped to windows not yet reported: what a late stamp
// owes a closed window goes to the oldest open one, so bytes are conserved
// and a reported sample never changes.
func (b *arrivalBins) add(at time.Duration, bytes int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	open := time.Duration(b.first) * b.interval
	at = max(at, open)
	from := max(min(b.prev, at-sampleGrace), at-b.interval, open)
	b.prev = at
	last := int(at/b.interval) - b.first
	for len(b.bins) <= last {
		b.bins = append(b.bins, 0)
	}
	if from >= at {
		b.bins[last] += float64(bytes)
		return
	}
	perNs := float64(bytes) / float64(at-from)
	for w := int(from/b.interval) - b.first; w <= last; w++ {
		lo := max(from, time.Duration(b.first+w)*b.interval)
		hi := min(at, time.Duration(b.first+w+1)*b.interval)
		b.bins[w] += perNs * float64(hi-lo)
	}
}

// take reports the next n windows as one figure and closes them.
func (b *arrivalBins) take(n int) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.first += n
	n = min(n, len(b.bins))
	var sum float64
	for _, v := range b.bins[:n] {
		sum += v
	}
	b.bins = b.bins[:copy(b.bins, b.bins[n:])]
	return sum
}

// NewUDPProbeContext prepares a probe against the ranked pool. The probe is
// idle until the first SetRate; its handshakes and sample waits honour ctx:
// cancellation makes the next NextSample return !ok and stops handshake
// retries.
func NewUDPProbeContext(ctx context.Context, pool *ServerPool, rng *rand.Rand) (*UDPProbe, error) {
	if len(pool.Servers) == 0 {
		return nil, fmt.Errorf("transport: %w: empty server pool", errdefs.ErrNoServers)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return &UDPProbe{
		pool:           pool,
		testID:         rng.Uint64(),
		started:        time.Now(),
		sampleInterval: SampleInterval,
		lostAfter:      faults.DefaultLostWindows,
		ctx:            ctx,
		recvBuf:        newBufPool(clientRecvBufSize, clientRecvBatch),
	}, nil
}

// TestID reports the probe's wire-protocol test identifier, for correlating
// run-records with server-side logs and metrics.
func (p *UDPProbe) TestID() uint64 { return p.testID }

// SetTrace attaches a tracer that receives transport-level events (server
// additions, handshake retries, lost sessions). Call before the first
// SetRate; a nil tracer disables emission.
func (p *UDPProbe) SetTrace(tr *obs.Trace) { p.trace = tr }

// SetLostAfter overrides K, the consecutive zero-byte sample windows after
// which an assigned session is declared lost. Call before the first SetRate;
// k <= 0 keeps the default.
func (p *UDPProbe) SetLostAfter(k int) {
	if k > 0 {
		p.lostAfter = k
	}
}

// SetMetrics registers the client-side metric series on reg. Call before the
// first SetRate; a nil registry disables instrumentation.
func (p *UDPProbe) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	p.lostCounter = reg.Counter("swiftest_client_sessions_lost_total",
		"Server sessions declared dead mid-test and failed over.")
	p.retryCounter = reg.Counter("swiftest_client_handshake_retries_total",
		"Session-setup attempts that needed retransmission.")
}

// SetToken attaches the dispatcher-lease auth token carried by every Setup.
// Call before the first SetRate; servers running without an auth key ignore
// it.
func (p *UDPProbe) SetToken(t wire.Token) { p.token = t }

// SetFinalReport attaches the estimator family and BDP-regime classification
// the final Bye carries to each server (CapEstimates sessions only). Call
// before Finish; without it the Bye reports the headline figure alone.
func (p *UDPProbe) SetFinalReport(est estimate.Estimates, regime estimate.Regime) {
	p.mu.Lock()
	p.finalEst = est
	p.finalRegime = regime
	p.mu.Unlock()
}

// SetRate implements core.Probe: it sizes the server set for mbps and
// distributes the rate across sessions in latency order.
//
// Mid-test failures degrade gracefully rather than aborting the test: if an
// additional server cannot be opened the rate is spread over the sessions
// that exist, and datagram send errors are tolerated like any other UDP loss
// (§5.1: servers are added "if necessary" — when none is available, the test
// continues with what it has and the samples tell the truth). Only a closed
// probe or an invalid rate is an error. The first SetRate is the exception:
// with no session at all the test cannot start, so total session failure is
// reported.
func (p *UDPProbe) SetRate(mbps float64) error {
	if mbps < 0 {
		return fmt.Errorf("transport: negative probing rate %g", mbps)
	}
	if p.closed.Load() {
		return errors.New("transport: probe closed")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.targetMbps = mbps
	p.redistributeLocked()
	if mbps > 0 && p.liveCountLocked() == 0 {
		if p.lastOpenErr != nil {
			// Surface the concrete refusal (auth rejection, silence) instead
			// of a generic exhaustion error.
			return fmt.Errorf("transport: %w: no test server accepted the session: %w",
				errdefs.ErrNoReachableServer, p.lastOpenErr)
		}
		return fmt.Errorf("transport: %w: no test server accepted the session",
			errdefs.ErrNoReachableServer)
	}
	return nil
}

func (p *UDPProbe) liveCountLocked() int {
	n := 0
	for _, sess := range p.sessions {
		if !sess.lost {
			n++
		}
	}
	return n
}

// redistributeLocked splits the current target rate across live sessions
// nearest-first, opening new sessions (skipping servers that refuse) until
// the live uplink covers the target with headroom, then pushes the new
// shares to every live server. Callers hold p.mu.
func (p *UDPProbe) redistributeLocked() {
	// Uplink already live.
	var covered float64
	for _, sess := range p.sessions {
		if !sess.lost {
			covered += sess.server.UplinkMbps
		}
	}
	// Open more servers while coverage falls short; failures shrink the
	// candidate set instead of failing the test.
	for covered < p.targetMbps*uplinkHeadroom && p.nextServer < len(p.pool.Servers) {
		srv := p.pool.Servers[p.nextServer]
		p.nextServer++
		sess, err := p.openSessionLocked(srv)
		if err != nil {
			p.lastOpenErr = err
			continue
		}
		p.sessions = append(p.sessions, sess)
		covered += srv.UplinkMbps
	}
	// Split the rate: each live server takes up to its uplink, nearest
	// first; then push shares on the wire.
	remaining := p.targetMbps
	seq := p.rateSeq.Add(1)
	for _, sess := range p.sessions {
		if sess.lost {
			continue
		}
		share := remaining
		if share > sess.server.UplinkMbps {
			share = sess.server.UplinkMbps
		}
		remaining -= share
		sess.assigned = share
		// Send twice: rate updates are idempotent; send errors are UDP loss.
		r2 := wire.Rate2{SessionID: sess.id, RateKbps: wire.KbpsFromMbps(share), Seq: seq}
		buf := r2.AppendTo(make([]byte, 0, wire.Rate2Len))
		for j := 0; j < 2; j++ {
			_, _ = sess.ctrl.Write(buf)
		}
	}
}

// sessionIDStride spreads per-session IDs across the 64-bit space from the
// probe's random test ID (the golden-ratio multiplier, as in Fibonacci
// hashing), so concurrent sessions from one probe never collide on the
// server's ID-keyed table.
const sessionIDStride = 0x9e3779b97f4a7c15

// openSessionLocked dials one server on two sockets — control and data —
// and runs the handshake over them. Callers hold p.mu.
//
// The error wraps errdefs.ErrProbeTimeout when a handshake frame went
// unanswered, and errdefs.ErrAuthRejected when the server refused the lease
// token, which no retry can fix.
func (p *UDPProbe) openSessionLocked(server PoolServer) (*clientSession, error) {
	fail := func(err error) (*clientSession, error) {
		return nil, &errdefs.ServerError{Addr: server.Addr, Op: "handshake", Err: err}
	}
	raddr, err := net.ResolveUDPAddr("udp", server.Addr)
	if err != nil {
		return fail(err)
	}
	ctrl, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return fail(err)
	}
	data, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		ctrl.Close()
		return fail(err)
	}
	// Non-fatal: the default buffer just loses more under burst.
	_ = data.SetReadBuffer(4 << 20)

	sid := p.testID ^ (uint64(p.used)+1)*sessionIDStride
	caps, err := p.handshake(ctrl, data, server, sid)
	if err != nil {
		ctrl.Close()
		data.Close()
		return fail(err)
	}
	sess := &clientSession{
		conn:     data,
		ctrl:     ctrl,
		server:   server,
		probe:    p,
		id:       sid,
		caps:     caps,
		done:     make(chan struct{}),
		ctrlDone: make(chan struct{}),
		byeAck:   make(chan struct{}),
		tracker:  faults.NewLostTracker(p.lostAfter),
		// Windows already reported are closed to a session opened late.
		bins: arrivalBins{interval: p.sampleInterval, first: p.window, prev: p.Elapsed()},
	}
	p.used++
	p.trace.Record(p.Elapsed(), obs.EventServerAdd, 0, server.UplinkMbps, server.Addr)
	go sess.receiveLoop()
	go sess.ctrlLoop()
	return sess, nil
}

// handshake opens session sid: Hello/HelloAck negotiation and the
// lease-authenticated Setup on the control socket, then DataOpen on the data
// socket so the server learns where to pace. It returns the session's active
// capability set.
func (p *UDPProbe) handshake(ctrl, data *net.UDPConn, server PoolServer, sid uint64) (uint32, error) {
	nonce := uint64(time.Now().UnixNano()) ^ p.testID
	hello := wire.Hello{
		MinVersion: wire.Version2, MaxVersion: wire.Version2,
		Caps: wire.ServerCaps, Nonce: nonce,
	}
	var ack wire.HelloAck
	err := p.exchange(ctrl, server, "hello-ack", hello.AppendTo(nil), func(pkt []byte) (bool, error) {
		return ack.Decode(pkt) == nil && ack.Nonce == nonce && ack.Version == wire.Version2, nil
	})
	if err != nil {
		return 0, err
	}

	// The negotiated capabilities ride the Setup: the server answered the
	// Hello without remembering it. An explicit SetupReject short-circuits
	// the retry budget — policy refusals don't melt away.
	setup := wire.Setup{SessionID: sid, Caps: ack.Caps, Token: p.token}
	var sack wire.SetupAck
	err = p.exchange(ctrl, server, "setup-ack", setup.AppendTo(nil), func(pkt []byte) (bool, error) {
		var rej wire.SetupReject
		if rej.Decode(pkt) == nil && rej.SessionID == sid {
			if rej.Code == wire.RejectAuth {
				return false, errdefs.ErrAuthRejected
			}
			return false, fmt.Errorf("setup rejected (code %d)", rej.Code)
		}
		return sack.Decode(pkt) == nil && sack.SessionID == sid, nil
	})
	if err != nil {
		return 0, err
	}

	do := wire.DataOpen{SessionID: sid, Nonce: nonce}
	err = p.exchange(data, server, "data-open-ack", do.AppendTo(nil), func(pkt []byte) (bool, error) {
		var doa wire.DataOpenAck
		return doa.Decode(pkt) == nil && doa.SessionID == sid, nil
	})
	return sack.Caps, err
}

// exchange runs one handshake step on conn: it transmits req up to
// handshakeAttempts times, handing every datagram that arrives within
// handshakeTimeout of a transmission to answered, until that reports the
// awaited answer (true) or a terminal refusal (an error). Silence past the
// budget wraps errdefs.ErrProbeTimeout; a cancelled probe context,
// errdefs.ErrTestAborted.
func (p *UDPProbe) exchange(conn *net.UDPConn, server PoolServer, awaited string, req []byte,
	answered func(pkt []byte) (bool, error)) error {
	buf := make([]byte, 2048)
	for attempt := 0; attempt < handshakeAttempts; attempt++ {
		if err := p.ctx.Err(); err != nil {
			return fmt.Errorf("%w: %w", errdefs.ErrTestAborted, err)
		}
		if attempt > 0 {
			p.retryCounter.Inc()
			p.trace.Record(p.Elapsed(), obs.EventServerRetry, float64(attempt), 0, server.Addr)
		}
		if _, err := conn.Write(req); err != nil {
			return err
		}
		_ = conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
		for {
			n, err := conn.Read(buf)
			if err != nil {
				break
			}
			if ok, err := answered(buf[:n]); ok || err != nil {
				return err
			}
		}
	}
	return fmt.Errorf("no %s after %d attempts: %w", awaited, handshakeAttempts, errdefs.ErrProbeTimeout)
}

// clientRecvBatch is how many datagrams a session's receive loop accepts
// per syscall on the batched path.
const clientRecvBatch = 16

// clientRecvBufSize holds any probe datagram with headroom.
const clientRecvBufSize = 2048

// receiveLoop drains the session socket in batches: up to clientRecvBatch
// datagrams per syscall where recvmmsg exists, one otherwise. Receive
// buffers come from the probe's shared pool and are held for the loop's
// lifetime, so the steady state reads at 0 allocs/packet.
func (cs *clientSession) receiveLoop() {
	defer close(cs.done)
	bio := batchio.New(cs.conn, batchio.ModeAuto)
	msgs := make([]batchio.Message, clientRecvBatch)
	bufs := make([]*pktBuf, clientRecvBatch)
	for i := range msgs {
		bufs[i] = cs.probe.recvBuf.get()
		msgs[i].Buf = bufs[i].b
	}
	defer func() {
		for _, b := range bufs {
			b.release()
		}
	}()
	for {
		_ = cs.conn.SetReadDeadline(time.Now().Add(time.Second))
		n, err := bio.RecvBatch(msgs)
		if err != nil {
			if cs.probe.closed.Load() {
				return
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return
		}
		// One arrival stamp per batch serves the sample windows and the
		// jitter estimator alike.
		now := time.Now()
		arrivedNS, bytes := now.UnixNano(), 0
		for i := 0; i < n; i++ {
			pkt := msgs[i].Buf[:msgs[i].N]
			var d wire.Data2
			if d.Decode(pkt) != nil {
				continue
			}
			bytes += len(pkt)
			cs.probe.observeJitter(arrivedNS, d.SentNS)
		}
		if bytes == 0 {
			continue
		}
		cs.bins.add(now.Sub(cs.probe.started), bytes)
		cs.rxBytes.Add(int64(bytes))
		cs.probe.rxBytes.Add(int64(bytes))
	}
}

// ctrlLoop drains the session's control socket: per-interval server Reports
// feed the loss view, the ByeAck releases the teardown. It exits when the
// socket closes — Finish and the lost-session failover both close it.
func (cs *clientSession) ctrlLoop() {
	defer close(cs.ctrlDone)
	buf := make([]byte, 2048)
	for {
		_ = cs.ctrl.SetReadDeadline(time.Now().Add(time.Second))
		n, err := cs.ctrl.Read(buf)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			return
		}
		_, typ, err := wire.PeekVersion(buf[:n])
		if err != nil {
			continue
		}
		switch typ {
		case wire.TypeReport:
			var r wire.Report
			if r.Decode(buf[:n]) != nil || r.SessionID != cs.id {
				continue
			}
			// Cumulative counters: a later report supersedes an earlier one
			// even when UDP reorders them, so keep the high-water mark.
			if r.SentBytes > cs.repBytes.Load() {
				cs.repBytes.Store(r.SentBytes)
			}
		case wire.TypeByeAck:
			var a wire.ByeAck
			if a.Decode(buf[:n]) == nil && a.SessionID == cs.id {
				cs.byeAckOnce.Do(func() { close(cs.byeAck) })
			}
		}
	}
}

// observeJitter folds one probe datagram, stamped with its batch's arrival
// time, into the RFC 3550 interarrival-jitter estimator: J += (|D| − J)/16
// where D is the change in (arrival − send) transit time between consecutive
// packets. Clock offset between client and server cancels in the difference,
// so no synchronisation is needed.
func (p *UDPProbe) observeJitter(arrivedNS int64, sentNS uint64) {
	transit := arrivedNS - int64(sentNS)
	prev := p.lastTransit.Swap(transit)
	if prev == 0 {
		return
	}
	delta := transit - prev
	if delta < 0 {
		delta = -delta
	}
	for {
		oldBits := p.jitterNs.Load()
		old := math.Float64frombits(oldBits)
		next := old + (float64(delta)-old)/16
		if p.jitterNs.CompareAndSwap(oldBits, math.Float64bits(next)) {
			return
		}
	}
}

// Jitter reports the current interarrival-jitter estimate — a free
// diagnostic of the access link's queueing behaviour during the test.
func (p *UDPProbe) Jitter() time.Duration {
	return time.Duration(math.Float64frombits(p.jitterNs.Load()))
}

// NextSample implements core.Probe: it waits for the end of the next sample
// window plus sampleGrace (abandoning the wait if the probe's context is
// cancelled) and reports the bytes that arrived in that window over exactly
// one interval. A caller more than a window late — SetRate held it for a
// handshake — gets one sample over every window that ended meanwhile, not a
// run of stale ones. Each session's share goes through the dead-session
// detector, failing over when a session that owes traffic has been silent
// for K consecutive samples.
//
//lint:allow ctxflow the wait is bounded by the sampling interval and the probe's stored context
func (p *UDPProbe) NextSample() (float64, bool) {
	if p.closed.Load() {
		return 0, false
	}
	due := p.started.Add(time.Duration(p.window+1)*p.sampleInterval + sampleGrace)
	if d := time.Until(due); d > 0 {
		timer := time.NewTimer(d)
		select {
		case <-timer.C:
		case <-p.ctx.Done():
			timer.Stop()
			return 0, false
		}
	}
	ended := int((p.Elapsed() - sampleGrace) / p.sampleInterval)
	n := max(ended-p.window, 1)
	bytes, alive := p.takeWindows(n)
	if !alive {
		return 0, false // every server is gone; the probe is exhausted
	}
	return bytes * 8 / (float64(n) * p.sampleInterval.Seconds()) / 1e6, true
}

// takeWindows closes the next n windows of every live session and returns
// their bytes, folding each session's delivery through its tracker and
// failing over any session declared dead: its share is redistributed to the
// survivors and its sockets closed. alive reports whether a server is left
// to sample.
func (p *UDPProbe) takeWindows(n int) (bytes float64, alive bool) {
	var toClose []*clientSession
	p.mu.Lock()
	p.window += n
	for _, sess := range p.sessions {
		if sess.lost {
			continue
		}
		got := sess.bins.take(n)
		bytes += got
		if sess.tracker.Observe(int64(math.Ceil(got)), sess.assigned > 0) {
			sess.lost = true
			p.lost++
			p.lostCounter.Inc()
			p.trace.Record(p.Elapsed(), obs.EventServerLost, sess.assigned, 0, sess.server.Addr)
			sess.assigned = 0
			toClose = append(toClose, sess)
		}
	}
	if len(toClose) > 0 {
		p.redistributeLocked()
	}
	alive = p.liveCountLocked() > 0 || p.targetMbps == 0
	p.mu.Unlock()
	for _, sess := range toClose {
		sess.conn.Close() // unblocks the receive loop
		sess.ctrl.Close() // unblocks the control loop
	}
	return bytes, alive
}

// Elapsed implements core.Probe.
func (p *UDPProbe) Elapsed() time.Duration { return time.Since(p.started) }

// DataMB implements core.Probe.
func (p *UDPProbe) DataMB() float64 { return float64(p.rxBytes.Load()) / 1e6 }

// ServersUsed implements core.ServerHealth.
func (p *UDPProbe) ServersUsed() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.used
}

// ServersLost implements core.ServerHealth.
func (p *UDPProbe) ServersLost() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lost
}

// Finish reports the result to every session's server — a Bye, retransmitted
// until acked, carrying the estimator family — and closes the probe.
func (p *UDPProbe) Finish(resultMbps float64, duration time.Duration) {
	if p.closed.Swap(true) {
		return
	}
	p.mu.Lock()
	sessions := append([]*clientSession(nil), p.sessions...)
	est, regime := p.finalEst, p.finalRegime
	p.mu.Unlock()
	for _, sess := range sessions {
		if !sess.lost {
			p.sendBye(sess, resultMbps, duration, est, regime)
		}
		sess.conn.Close()
		sess.ctrl.Close()
		<-sess.done
		<-sess.ctrlDone
	}
}

// byeAttempts bounds Bye retransmissions during teardown.
const byeAttempts = 3

// sendBye runs the reliable teardown: the Bye carries the headline result
// plus — on CapEstimates sessions — the estimator family and BDP regime, and
// is retransmitted until the ByeAck lands or the budget runs out.
func (p *UDPProbe) sendBye(sess *clientSession, resultMbps float64, duration time.Duration,
	est estimate.Estimates, regime estimate.Regime) {
	bye := wire.Bye{
		SessionID:  sess.id,
		ResultKbps: wire.KbpsFromMbps(resultMbps),
		DurationMS: uint32(duration.Milliseconds()),
	}
	if sess.caps&wire.CapEstimates != 0 {
		bye.CrossingKbps = wire.KbpsFromMbps(est.CrossingMbps)
		bye.TrimmedKbps = wire.KbpsFromMbps(est.TrimmedMeanMbps)
		bye.PeakKbps = wire.KbpsFromMbps(est.SustainedPeakMbps)
		bye.P90P80Kbps = wire.KbpsFromMbps(est.P90P80Mbps)
		bye.Regime = uint8(regime)
	}
	buf := bye.AppendTo(make([]byte, 0, wire.ByeLen))
	for attempt := 0; attempt < byeAttempts; attempt++ {
		if _, err := sess.ctrl.Write(buf); err != nil {
			return
		}
		select {
		case <-sess.byeAck:
			return
		case <-time.After(handshakeTimeout):
		}
	}
}
