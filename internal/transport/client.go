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

	"github.com/mobilebandwidth/swiftest/internal/core"
	"github.com/mobilebandwidth/swiftest/internal/errdefs"
	"github.com/mobilebandwidth/swiftest/internal/estimate"
	"github.com/mobilebandwidth/swiftest/internal/faults"
	"github.com/mobilebandwidth/swiftest/internal/obs"
	"github.com/mobilebandwidth/swiftest/internal/par"
	"github.com/mobilebandwidth/swiftest/internal/transport/batchio"
	"github.com/mobilebandwidth/swiftest/internal/wire"
)

// PingServerContext measures the round-trip latency to one server with count
// pings (≤ 0 selects 3), each waiting up to timeout (≤ 0 selects 1 s), and
// returns the minimum RTT observed, the standard BTS server-selection metric
// (§2). Cancelling ctx stops the ping exchange early. Failure to elicit any
// pong yields an error matching both errdefs.ErrProbeTimeout and
// errdefs.ServerError.
func PingServerContext(ctx context.Context, addr string, count int, timeout time.Duration) (time.Duration, error) {
	if count <= 0 {
		count = 3
	}
	if timeout <= 0 {
		timeout = time.Second
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
	par.For(candidates, rankConcurrency, func(i int) error {
		rtts[i], errs[i] = PingServerContext(ctx, p.Servers[i].Addr, pingCount, timeout)
		return nil
	})

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

// handshakeTimeout is the per-attempt wait for the frame's answer.
const handshakeTimeout = 200 * time.Millisecond

// UDPProbe implements core.Probe over real UDP sockets against a pool of
// test servers, one session per server. Its core.ServerSet, the rule the
// emulated pool runs too, decides which sessions open, the share each
// paces, and when one is lost and replaced; the probe does the I/O.
type UDPProbe struct {
	pool    *ServerPool
	cfg     ProbeConfig
	testID  uint64
	started time.Time
	ctx     context.Context

	mu       sync.Mutex
	set      core.ServerSet   // guarded by mu
	sessions []*clientSession // by pool index, nil until opened; guarded by mu
	window   int              // next sample window to report; NextSample writes it under mu

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

	rxBytes atomic.Int64
	bins    arrivalBins // rxBytes by sample window, in arrival time

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

// ProbeConfig configures a UDPProbe; the zero value is the default.
type ProbeConfig struct {
	// Trace receives transport-level events (server additions, handshake
	// retries, lost sessions). Nil disables emission.
	Trace *obs.Trace
	// Metrics, when non-nil, receives the client-side metric series.
	Metrics *obs.Registry
	// Token is the dispatcher-lease auth token carried by every Setup;
	// servers running without an auth key ignore it.
	Token wire.Token
}

// NewUDPProbeContext prepares a probe against the ranked pool, configured by
// cfg (at most one; none is the zero ProbeConfig). The probe is idle until
// the first SetRate; its handshakes and sample waits honour ctx:
// cancellation makes the next NextSample return !ok and stops handshake
// retries.
func NewUDPProbeContext(ctx context.Context, pool *ServerPool, rng *rand.Rand, cfg ...ProbeConfig) (*UDPProbe, error) {
	if len(pool.Servers) == 0 {
		return nil, fmt.Errorf("transport: %w: empty server pool", errdefs.ErrNoServers)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	var c ProbeConfig
	if len(cfg) > 0 {
		c = cfg[0]
	}
	p := &UDPProbe{
		pool:           pool,
		testID:         rng.Uint64(),
		started:        time.Now(),
		cfg:            c,
		sampleInterval: SampleInterval,
		ctx:            ctx,
		sessions:       make([]*clientSession, len(pool.Servers)),
		recvBuf:        newBufPool(clientRecvBufSize, clientRecvBatch),
		lostCounter: c.Metrics.Counter("swiftest_client_sessions_lost_total",
			"Server sessions declared dead mid-test and failed over."),
		retryCounter: c.Metrics.Counter("swiftest_client_handshake_retries_total",
			"Session-setup attempts that needed retransmission."),
	}
	p.set.Reset(len(pool.Servers), faults.DefaultLostWindows, c.Trace)
	for i, srv := range pool.Servers {
		p.set.Describe(i, srv.Addr, srv.UplinkMbps)
	}
	return p, nil
}

// TestID reports the probe's wire-protocol test identifier, for correlating
// run-records with server-side logs and metrics.
func (p *UDPProbe) TestID() uint64 { return p.testID }

// SetFinalReport attaches the estimator family and BDP-regime classification
// the final Bye carries to each server (CapEstimates sessions only). Call
// before Finish; without it the Bye reports the headline figure alone.
func (p *UDPProbe) SetFinalReport(est estimate.Estimates, regime estimate.Regime) {
	p.mu.Lock()
	p.finalEst = est
	p.finalRegime = regime
	p.mu.Unlock()
}

// SetRate implements core.Probe: the server set sizes itself for mbps and
// splits it across sessions in latency order. A server that cannot be
// opened shrinks the set, and send errors count as UDP loss (§5.1: servers
// are added "if necessary"; the samples tell the truth). Only a closed
// probe, an invalid rate, or a positive rate with no session at all is an
// error; the last wraps the most recent refusal (auth rejection, silence).
func (p *UDPProbe) SetRate(mbps float64) error {
	if p.closed.Load() {
		return errors.New("transport: probe closed")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.set.SetTarget(mbps, p.ioLocked())
}

// ioLocked is the I/O the probe lends its server set. Callers hold p.mu.
func (p *UDPProbe) ioLocked() core.ServerIO {
	return core.ServerIO{Open: p.openLocked, Pace: p.paceLocked, Release: p.releaseLocked, Elapsed: p.Elapsed}
}

// paceLocked asks session i's server to pace at mbps. Callers hold p.mu.
func (p *UDPProbe) paceLocked(i int, mbps float64) {
	sess := p.sessions[i]
	r2 := wire.Rate2{SessionID: sess.id, RateKbps: wire.KbpsFromMbps(mbps), Seq: p.rateSeq.Add(1)}
	buf := r2.AppendTo(make([]byte, 0, wire.Rate2Len))
	// Send twice: rate updates are idempotent; send errors are UDP loss.
	for j := 0; j < 2; j++ {
		_, _ = sess.ctrl.Write(buf)
	}
}

// releaseLocked closes lost session i's sockets, unblocking its receive and
// control loops. Callers hold p.mu.
func (p *UDPProbe) releaseLocked(i int) {
	p.lostCounter.Inc()
	p.sessions[i].conn.Close()
	p.sessions[i].ctrl.Close()
}

// sessionIDStride spreads per-session IDs across the 64-bit space from the
// probe's random test ID (the golden-ratio multiplier, as in Fibonacci
// hashing), so concurrent sessions from one probe never collide on the
// server's ID-keyed table.
const sessionIDStride = 0x9e3779b97f4a7c15

// openLocked dials pool server i on two sockets — control and data — and
// runs the handshake over them. Callers hold p.mu.
//
// The error wraps errdefs.ErrProbeTimeout when a handshake frame went
// unanswered, and errdefs.ErrAuthRejected when the server refused the lease
// token, which no retry can fix.
func (p *UDPProbe) openLocked(i int) error {
	server := p.pool.Servers[i]
	fail := func(err error) error {
		return &errdefs.ServerError{Addr: server.Addr, Op: "handshake", Err: err}
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

	sid := p.testID ^ (uint64(p.set.ServersUsed())+1)*sessionIDStride
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
		// Windows already reported are closed to a session opened late.
		bins: arrivalBins{interval: p.sampleInterval, first: p.window, prev: p.Elapsed()},
	}
	p.sessions[i] = sess
	go sess.receiveLoop()
	go sess.ctrlLoop()
	return nil
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
	setup := wire.Setup{SessionID: sid, Caps: ack.Caps, Token: p.cfg.Token}
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
// core.HandshakeAttempts times, handing every datagram that arrives within
// handshakeTimeout of a transmission to answered, until that reports the
// awaited answer (true) or a terminal refusal (an error). Silence past the
// budget wraps errdefs.ErrProbeTimeout; a cancelled probe context,
// errdefs.ErrTestAborted.
func (p *UDPProbe) exchange(conn *net.UDPConn, server PoolServer, awaited string, req []byte,
	answered func(pkt []byte) (bool, error)) error {
	buf := make([]byte, 2048)
	for attempt := 0; attempt < core.HandshakeAttempts; attempt++ {
		if err := p.ctx.Err(); err != nil {
			return fmt.Errorf("%w: %w", errdefs.ErrTestAborted, err)
		}
		if attempt > 0 {
			p.retryCounter.Inc()
			p.cfg.Trace.Record(p.Elapsed(), obs.EventServerRetry, float64(attempt), 0, server.Addr)
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
	return fmt.Errorf("no %s after %d attempts: %w", awaited, core.HandshakeAttempts, errdefs.ErrProbeTimeout)
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
// run of stale ones. Each session's delivery goes to the server set, which
// fails over from a session that owes traffic and has been silent for K
// consecutive samples.
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
	var bytes float64
	p.mu.Lock()
	p.window += n
	alive := p.set.Window(p.ioLocked(), func(i int) int64 {
		got := p.sessions[i].bins.take(n)
		bytes += got
		return int64(math.Ceil(got)) // any share of a datagram is delivery
	})
	p.mu.Unlock()
	if !alive {
		return 0, false // every server is gone; the probe is exhausted
	}
	return bytes * 8 / (float64(n) * p.sampleInterval.Seconds()) / 1e6, true
}

// Elapsed implements core.Probe.
func (p *UDPProbe) Elapsed() time.Duration { return time.Since(p.started) }

// DataMB implements core.Probe.
func (p *UDPProbe) DataMB() float64 { return float64(p.rxBytes.Load()) / 1e6 }

// ServersUsed implements core.ServerHealth.
func (p *UDPProbe) ServersUsed() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.set.ServersUsed()
}

// ServersLost implements core.ServerHealth.
func (p *UDPProbe) ServersLost() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.set.ServersLost()
}

// Finish reports the result to every session's server — a Bye, retransmitted
// until acked, carrying the estimator family — and closes the probe.
func (p *UDPProbe) Finish(resultMbps float64, duration time.Duration) {
	if p.closed.Swap(true) {
		return
	}
	p.mu.Lock()
	var opened, live []*clientSession
	for i, sess := range p.sessions {
		if sess != nil {
			opened = append(opened, sess)
		}
		if p.set.Live(i) {
			live = append(live, sess)
		}
	}
	est, regime := p.finalEst, p.finalRegime
	p.mu.Unlock()
	for _, sess := range live {
		p.sendBye(sess, resultMbps, duration, est, regime)
	}
	for _, sess := range opened {
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
