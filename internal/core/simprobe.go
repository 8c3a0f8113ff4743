package core

import (
	"fmt"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/faults"
	"github.com/mobilebandwidth/swiftest/internal/linksim"
	"github.com/mobilebandwidth/swiftest/internal/obs"
)

// SimServer describes one emulated test server in a SimProbe's pool.
// Servers are consulted nearest-first in slice order, mirroring the real
// transport's RTT-ranked pool.
type SimServer struct {
	// Addr labels the server in trace events ("sim-N" when empty).
	Addr string
	// UplinkMbps caps the probing rate this server can source (§5.1's
	// per-server uplink limit). Zero or negative means uncapped.
	UplinkMbps float64
}

// SimPoolConfig parameterises a SimProbe's server pool. The zero value is
// one uncapped server with no faults.
type SimPoolConfig struct {
	// Servers is the emulated pool, nearest-first. Empty emulates one
	// uncapped server, fault index 0.
	Servers []SimServer
	// Faults optionally injects the shared fault plan. Nil injects nothing.
	Faults *faults.Injector
	// LostAfter is K, the consecutive zero-byte sample windows after which
	// an assigned session is declared lost. Zero selects
	// faults.DefaultLostWindows.
	LostAfter int
	// Trace, when non-nil, receives server lifecycle events (server_add,
	// server_retry, server_lost) stamped in virtual time.
	Trace *obs.Trace
}

// simServer is one emulated server's session.
type simServer struct {
	flow      *linksim.Flow // nil until the session opens; kept after it closes
	lastBytes float64       // flow bytes at the previous sample boundary
}

// SimProbe implements Probe, RTTSampler and ServerHealth over the
// virtual-time link emulator. It emulates a pool of servers sharing one
// access link: every server is a UDP-style paced flow on the link (no
// congestion control — the pacing is the application-layer mechanism of
// §5.1), the ServerSet the live client runs decides which servers open and
// what share each paces, and the same fault injector that drives the real
// transport drives each flow's impairment hook, so blackout, burst-loss and
// rate-cap plans exercise the client-side failover logic under virtual
// time. Each NextSample advances virtual time by one sampling interval.
//
// Without a config the pool is one uncapped server: the probe every
// experiment runs.
type SimProbe struct {
	link  *linksim.Link
	set   ServerSet
	one   [1]simServer // the pool when it has one server, sparing an allocation
	more  []simServer  // the pool when it has more
	inj   *faults.Injector
	start time.Duration
}

// NewSimProbe attaches a probe to an emulated access link. The optional
// cfg (at most one) describes the server pool; without it the probe is one
// uncapped server with no faults. No flow is opened until the first
// SetRate.
func NewSimProbe(link *linksim.Link, cfg ...SimPoolConfig) *SimProbe {
	// Small enough to inline, so a caller that keeps the probe local keeps
	// it off the heap.
	sp := &SimProbe{link: link, start: link.Now()}
	sp.configure(cfg)
	return sp
}

// configure builds the server pool cfg describes.
func (sp *SimProbe) configure(cfg []SimPoolConfig) {
	var c SimPoolConfig
	if len(cfg) > 0 {
		c = cfg[0]
	}
	sp.inj = c.Faults
	servers := c.Servers
	if len(servers) == 0 {
		servers = []SimServer{{}} // one uncapped server
	}
	sp.set.Reset(len(servers), c.LostAfter, c.Trace)
	if len(servers) > 1 {
		sp.more = make([]simServer, len(servers))
	}
	for i, s := range servers {
		if s.Addr == "" && c.Trace != nil {
			s.Addr = fmt.Sprintf("sim-%d", i)
		}
		sp.set.Describe(i, s.Addr, s.UplinkMbps)
	}
}

// pool is the emulated servers, nearest-first.
func (sp *SimProbe) pool() []simServer {
	if sp.more != nil {
		return sp.more
	}
	return sp.one[:]
}

// io is the I/O the probe lends its server set.
func (sp *SimProbe) io() ServerIO {
	return ServerIO{Open: sp.open, Pace: sp.pace, Release: sp.release, Elapsed: sp.Elapsed}
}

// SetRate implements Probe: the server set splits mbps across the pool,
// opening sessions as needed.
func (sp *SimProbe) SetRate(mbps float64) error { return sp.set.SetTarget(mbps, sp.io()) }

// open performs the fault-aware handshake with server i: up to
// HandshakeAttempts tries, each individually droppable by the plan (a
// blacked-out server drops every attempt).
func (sp *SimProbe) open(i int) error {
	at := sp.Elapsed()
	for attempt := 0; attempt < HandshakeAttempts; attempt++ {
		if sp.inj.DropHandshake(i, at, attempt) {
			sp.set.trace.Record(at, obs.EventServerRetry, float64(attempt+1), 0, sp.set.servers()[i].addr)
			continue
		}
		s := &sp.pool()[i]
		s.flow = sp.link.NewFlow()
		s.flow.SetImpairment(sp.inj.Impair(i, sp.start))
		return nil
	}
	return fmt.Errorf("core: emulated server %d dropped %d handshakes", i, HandshakeAttempts)
}

func (sp *SimProbe) pace(i int, mbps float64) { sp.pool()[i].flow.SetOffered(mbps) }

func (sp *SimProbe) release(i int) { sp.pool()[i].flow.Close() }

// NextSample implements Probe: advance one sampling interval of virtual
// time and hand each server's delivery to the server set, which fails over
// from a server it declares lost.
func (sp *SimProbe) NextSample() (float64, bool) {
	for range int(linksim.SampleInterval / linksim.Tick) {
		sp.link.Advance()
	}
	var windowBytes float64
	servers := sp.pool()
	alive := sp.set.Window(sp.io(), func(i int) int64 {
		s := &servers[i]
		total := s.flow.DeliveredBytes()
		delta := total - s.lastBytes
		s.lastBytes = total
		windowBytes += delta
		return int64(delta)
	})
	if !alive {
		return 0, false // every server is gone; the probe is exhausted
	}
	return windowBytes * 8 / linksim.SampleInterval.Seconds() / 1e6, true
}

// Elapsed implements Probe: virtual time since the probe attached, which
// is also the time base of the fault plan.
func (sp *SimProbe) Elapsed() time.Duration { return sp.link.Now() - sp.start }

// DataMB implements Probe: the data metered at the client across the whole
// pool, servers lost mid-test included — what actually crossed its access
// link (overshoot beyond the bottleneck is dropped at the bottleneck queue,
// not delivered over the radio).
func (sp *SimProbe) DataMB() float64 {
	var bytes float64
	for _, s := range sp.pool() {
		if f := s.flow; f != nil {
			bytes += f.DeliveredBytes()
		}
	}
	return bytes / 1e6
}

// SampleRTT implements RTTSampler: the emulated link's base RTT plus the
// current bottleneck queueing delay. Every flow shares the one access link,
// so any server's flow reports it; ok is false before the first session
// opens.
func (sp *SimProbe) SampleRTT() (time.Duration, bool) {
	for _, s := range sp.pool() {
		if s.flow != nil {
			return s.flow.RTT(), true
		}
	}
	return 0, false
}

// ServersUsed implements ServerHealth.
func (sp *SimProbe) ServersUsed() int { return sp.set.ServersUsed() }

// ServersLost implements ServerHealth.
func (sp *SimProbe) ServersLost() int { return sp.set.ServersLost() }

// Close releases every live flow.
func (sp *SimProbe) Close() {
	for i, s := range sp.pool() {
		if sp.set.Live(i) {
			s.flow.Close()
		}
	}
}
