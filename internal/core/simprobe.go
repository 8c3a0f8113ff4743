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

// simHandshakeAttempts bounds handshake retries per server, matching the
// real transport's bound.
const simHandshakeAttempts = 5

// simServer is one emulated server session.
type simServer struct {
	cfg       SimServer
	addr      string        // trace label; set only when a trace listens
	flow      *linksim.Flow // nil until the session opens; kept after it closes
	open      bool
	failed    bool    // handshake exhausted; never opened
	lost      bool    // declared dead mid-test
	assigned  float64 // Mbps currently asked of this server
	lastBytes float64 // flow bytes at the previous sample boundary
	tracker   faults.LostTracker
}

// SimProbe implements Probe, RTTSampler and ServerHealth over the
// virtual-time link emulator. It emulates a pool of servers sharing one
// access link: every server is a UDP-style paced flow on the link (no
// congestion control — the pacing is the application-layer mechanism of
// §5.1), the probing rate is split nearest-first under per-server uplink
// caps, and the same fault injector that drives the real transport drives
// each flow's impairment hook, so blackout, burst-loss and rate-cap plans
// exercise the client-side failover logic under virtual time. Each
// NextSample advances virtual time by one sampling interval.
//
// Without a config the pool is one uncapped server: the probe every
// experiment runs.
type SimProbe struct {
	link  *linksim.Link
	one   [1]simServer // the pool when it has one server, sparing an allocation
	more  []simServer  // the pool when it has more
	inj   *faults.Injector
	trace *obs.Trace
	start time.Duration
	rate  float64
	used  int
	lost  int
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
	sp.inj, sp.trace = c.Faults, c.Trace
	if len(c.Servers) > 1 {
		sp.more = make([]simServer, len(c.Servers))
	}
	servers := sp.pool()
	tracker := *faults.NewLostTracker(c.LostAfter)
	for i := range servers {
		s := &servers[i]
		if i < len(c.Servers) {
			s.cfg = c.Servers[i]
		}
		s.tracker = tracker
		if sp.trace != nil {
			s.addr = s.cfg.Addr
			if s.addr == "" {
				s.addr = fmt.Sprintf("sim-%d", i)
			}
		}
	}
}

// pool is the emulated servers, nearest-first.
func (sp *SimProbe) pool() []simServer {
	if sp.more != nil {
		return sp.more
	}
	return sp.one[:]
}

// SetRate implements Probe: it splits mbps across the pool nearest-first,
// opening sessions (with bounded, fault-aware handshakes) as needed.
func (sp *SimProbe) SetRate(mbps float64) error {
	if mbps < 0 {
		return fmt.Errorf("core: negative probing rate %g", mbps)
	}
	sp.rate = mbps
	sp.distribute()
	if mbps > 0 && sp.openCount() == 0 {
		return fmt.Errorf("core: no emulated server reachable for %.1f Mbps", mbps)
	}
	return nil
}

// openCount reports live sessions.
func (sp *SimProbe) openCount() int {
	n := 0
	for _, s := range sp.pool() {
		if s.open {
			n++
		}
	}
	return n
}

// distribute splits the current target rate across usable servers
// nearest-first, respecting per-server uplink caps. A server is opened only
// when a positive share is left for it, and an open server whose share
// falls to zero idles at zero. (The live client opens servers until their
// uplinks cover 1.05× the target and keeps every opened one paced.)
func (sp *SimProbe) distribute() {
	remaining := sp.rate
	servers := sp.pool()
	for i := range servers {
		s := &servers[i]
		if s.lost || s.failed {
			continue
		}
		if remaining <= 0 {
			s.assigned = 0
			if s.open {
				s.flow.SetOffered(0)
			}
			continue
		}
		take := remaining
		if s.cfg.UplinkMbps > 0 && take > s.cfg.UplinkMbps {
			take = s.cfg.UplinkMbps
		}
		if !s.open && !sp.openSession(i) {
			continue
		}
		s.assigned = take
		s.flow.SetOffered(take)
		remaining -= take
	}
}

// openSession performs the fault-aware handshake with server i: up to
// simHandshakeAttempts tries, each individually droppable by the plan (a
// blacked-out server drops every attempt). Reports whether the session
// opened; a failure marks the server unusable for the rest of the test.
func (sp *SimProbe) openSession(i int) bool {
	s := &sp.pool()[i]
	at := sp.Elapsed()
	for attempt := 0; attempt < simHandshakeAttempts; attempt++ {
		if sp.inj.DropHandshake(i, at, attempt) {
			sp.trace.Record(at, obs.EventServerRetry, float64(attempt+1), 0, s.addr)
			continue
		}
		s.open = true
		s.flow = sp.link.NewFlow()
		s.flow.SetImpairment(sp.inj.Impair(i, sp.start))
		sp.used++
		sp.trace.Record(at, obs.EventServerAdd, 0, s.cfg.UplinkMbps, s.addr)
		return true
	}
	s.failed = true
	sp.trace.Record(at, obs.EventError, 0, 0, "handshake failed: "+s.addr)
	return false
}

// NextSample implements Probe: advance one sampling interval of virtual
// time, fold per-server deliveries through the dead-session tracker, and
// fail over — redistributing a lost server's share to the survivors.
func (sp *SimProbe) NextSample() (float64, bool) {
	for range int(linksim.SampleInterval / linksim.Tick) {
		sp.link.Advance()
	}

	var windowBytes float64
	failedOver := false
	servers := sp.pool()
	for i := range servers {
		s := &servers[i]
		if !s.open {
			continue
		}
		total := s.flow.DeliveredBytes()
		delta := total - s.lastBytes
		s.lastBytes = total
		windowBytes += delta
		if s.tracker.Observe(int64(delta), s.assigned > 0) {
			// K consecutive silent windows on an assigned session: the
			// server is gone. Release it and hand its share to survivors.
			s.lost = true
			s.open = false
			s.flow.Close()
			sp.lost++
			sp.trace.Record(sp.Elapsed(), obs.EventServerLost, s.assigned, 0, s.addr)
			s.assigned = 0
			failedOver = true
		}
	}
	if failedOver {
		sp.distribute()
		if sp.rate > 0 && sp.openCount() == 0 {
			return 0, false // every server is gone; the probe is exhausted
		}
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
func (sp *SimProbe) ServersUsed() int { return sp.used }

// ServersLost implements ServerHealth.
func (sp *SimProbe) ServersLost() int { return sp.lost }

// Close releases every live flow.
func (sp *SimProbe) Close() {
	servers := sp.pool()
	for i := range servers {
		if s := &servers[i]; s.open {
			s.flow.Close()
			s.open = false
		}
	}
}
