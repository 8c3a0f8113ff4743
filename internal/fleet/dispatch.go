package fleet

import (
	"fmt"
	"sort"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/deploy"
	"github.com/mobilebandwidth/swiftest/internal/errdefs"
	"github.com/mobilebandwidth/swiftest/internal/obs"
	"github.com/mobilebandwidth/swiftest/internal/stats"
	"github.com/mobilebandwidth/swiftest/internal/wire"
)

// Defaults for the Dispatcher's admission sizing. PerTestMbps follows the
// §5.2 sizing convention: a Swiftest test claims its model's expected rate
// only for ~1.2 s, so a conservative per-slot reservation of a few Mbps
// keeps budget uplinks honest without over-throttling.
const (
	DefaultPerTestMbps     = 5.0
	DefaultAvgTestDuration = 1200 * time.Millisecond
)

// rankLength bounds the ranked server list of an Assignment: the primary
// plus failover alternates.
const rankLength = 3

// Config parameterises a Dispatcher.
type Config struct {
	// PerTestMbps is the egress each admitted test reserves on its server —
	// the divisor of the plan-derived session cap
	// (deploy.Plan.ConcurrentCapacity). Zero selects DefaultPerTestMbps.
	PerTestMbps float64
	// AvgTestDuration sizes the token-bucket refill: a full server turns
	// over cap/AvgTestDuration tests per second, so that is the sustainable
	// admission rate. Zero selects DefaultAvgTestDuration.
	AvgTestDuration time.Duration
	// LeaseTTL bounds a session lease when the client never calls Release
	// (a crashed CLI client); Advance reclaims the slot after the TTL. Zero
	// selects 25× AvgTestDuration; negative disables expiry.
	LeaseTTL time.Duration
	// TokenTTL bounds minted session tokens on keyed fleets: each token's
	// Expires deadline is its mint time plus TokenTTL, and servers sharing
	// the auth key reject stale tokens at session setup (wire.RejectAuth).
	// Zero mints non-expiring tokens. Requires TokenEpochMS so the
	// deterministic core never reads a clock.
	TokenTTL time.Duration
	// TokenEpochMS is the absolute unix-ms instant of elapsed time zero —
	// the dispatcher's birth on the wall clock. The live control plane
	// (the `swiftest dispatch` verb) stamps it automatically when
	// TokenTTL is set; emulated fleets pin any fixed value. Token expiry
	// deadlines are TokenEpochMS + at + TokenTTL, so mints stay a pure
	// function of caller-stamped time.
	TokenEpochMS uint64
	// HeartbeatWindow is the liveness sampling window; zero selects
	// DefaultHeartbeatWindow.
	HeartbeatWindow time.Duration
	// Seed drives the deterministic tie-break between equally ranked
	// servers, so a fixed (seed, registry snapshot) pair always yields the
	// same assignment.
	Seed int64
	// ActivatePlanned brings every planned slot up live immediately, with a
	// synthetic address — the emulated-fleet mode used by loadgen and
	// tests. Without it, slots wait for real servers to Register.
	ActivatePlanned bool
	// AuthKey, when non-zero, makes every assignment carry a protocol-v2
	// session token minted from its lease (wire.MintToken over the lease's
	// server ID and sequence). Test servers configured with the same key
	// admit only clients presenting such a token, closing the fleet to
	// unleased traffic. Zero leaves assignments tokenless (open fleet).
	AuthKey uint64
	// Metrics, when non-nil, receives the fleet gauges and counters.
	Metrics *obs.Registry
	// Trace, when non-nil, receives assign/reject/server_dead/drain events.
	Trace *obs.Trace
}

// ClientInfo describes one incoming test request.
type ClientInfo struct {
	// Key identifies the client deterministically (loadgen uses the arrival
	// sequence number; the CLI hashes the remote address).
	Key uint64
	// Domain is the client's nearest IXP domain, when known — the latency
	// estimate's input.
	Domain string
	// ClaimMbps is the egress the test is expected to consume; zero claims
	// the dispatcher's PerTestMbps.
	ClaimMbps float64
}

// LeaseID names one admitted session for Release.
type LeaseID struct {
	Server int
	Seq    uint64
}

// Assignment is a dispatch decision: the ranked server list. Servers[0] is
// the admitted primary carrying the session lease; the rest are failover
// alternates in preference order, feeding the client's multi-server pool so
// a mid-test server death fails over along this ranking. On keyed fleets
// (Config.AuthKey) Token authenticates the lease to the data plane: the
// client presents it in every protocol-v2 Setup.
type Assignment struct {
	Client  ClientInfo
	Lease   LeaseID
	Servers []ServerInfo
	Token   wire.Token
}

// Dispatcher assigns incoming clients to fleet servers: deterministic
// ranking by (latency estimate, load, headroom), token-bucket plus
// session-cap admission, and drain/death-aware failover reassignment.
type Dispatcher struct {
	reg  *Registry
	cfg  Config
	plan deploy.Plan
}

// errNoLiveServers is the no-live-servers rejection, wrapped once at package
// level so Dispatch's hot path returns it without formatting.
var errNoLiveServers = fmt.Errorf("fleet: dispatch: %w: no live servers", errdefs.ErrNoReachableServer)

// NewDispatcher builds the control plane for a deployment plan: one planned
// slot per purchased server, placed in its IXP domain, with admission caps
// derived from the plan's uplinks via deploy.Plan.ConcurrentCapacity
// arithmetic. placements may be nil (servers stay unplaced); otherwise they
// must cover exactly the plan's servers, e.g. from deploy.PlaceServers or a
// `swiftest plan -json` artifact.
func NewDispatcher(plan deploy.Plan, placements []deploy.Placement, cfg Config) (*Dispatcher, error) {
	if plan.Servers() == 0 {
		return nil, fmt.Errorf("fleet: %w: plan purchases no servers", errdefs.ErrNoServers)
	}
	if cfg.PerTestMbps <= 0 {
		cfg.PerTestMbps = DefaultPerTestMbps
	}
	if cfg.AvgTestDuration <= 0 {
		cfg.AvgTestDuration = DefaultAvgTestDuration
	}
	if cfg.LeaseTTL == 0 {
		cfg.LeaseTTL = 25 * cfg.AvgTestDuration
	}
	if cfg.TokenTTL < 0 {
		return nil, fmt.Errorf("fleet: negative TokenTTL %v", cfg.TokenTTL)
	}
	if cfg.TokenTTL > 0 && cfg.TokenEpochMS == 0 {
		return nil, fmt.Errorf("fleet: TokenTTL %v set without TokenEpochMS — stamp the dispatcher's wall-clock birth so token expiry deadlines are absolute", cfg.TokenTTL)
	}
	metrics := newFleetMetrics(cfg.Metrics)
	d := &Dispatcher{
		reg: newRegistry(cfg.HeartbeatWindow, metrics, cfg.Trace),
		cfg: cfg,
	}
	d.plan = plan
	d.reg.admission = d.admissionFor

	state := StatePlanned
	if cfg.ActivatePlanned {
		state = StateLive
	}
	add := func(c deploy.ServerConfig, domain string, slot int) {
		cap, rate, burst := d.admissionFor(c.BandwidthMbps)
		addr := fmt.Sprintf("%s/slot%d", domain, slot)
		if domain == "" {
			addr = fmt.Sprintf("slot%d", slot)
		}
		d.reg.mu.Lock()
		d.reg.addServerLocked(ServerInfo{Addr: addr, Domain: domain, UplinkMbps: c.BandwidthMbps}, state, cap, rate, burst)
		d.reg.mu.Unlock()
	}
	if len(placements) > 0 {
		placed := 0
		slot := 0
		for _, p := range placements {
			for _, c := range p.Servers {
				add(c, p.Domain, slot)
				slot++
				placed++
			}
		}
		if placed != plan.Servers() {
			return nil, fmt.Errorf("fleet: placements hold %d servers, plan purchases %d", placed, plan.Servers())
		}
	} else {
		slot := 0
		for _, pu := range plan.Purchases {
			for i := 0; i < pu.Count; i++ {
				add(pu.Config, "", slot)
				slot++
			}
		}
	}
	d.reg.mu.Lock()
	d.reg.updateStateGaugesLocked()
	d.reg.mu.Unlock()
	return d, nil
}

// NewDispatcherFromArtifact builds a dispatcher from a `swiftest plan -json`
// artifact — the e2e path: planner output round-trips through JSON into the
// live control plane.
func NewDispatcherFromArtifact(a *deploy.Artifact, cfg Config) (*Dispatcher, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return NewDispatcher(a.Plan, a.Placements, cfg)
}

// admissionFor derives the per-server admission parameters from an uplink:
// the session cap is the §5.2 sizing identity (uplink / per-test Mbps, at
// least one slot), the token rate is the cap's steady-state turnover, and
// the burst allows filling the server from idle in one go.
func (d *Dispatcher) admissionFor(uplinkMbps float64) (cap int, rate, burst float64) {
	cap = deploy.ServerConfig{BandwidthMbps: uplinkMbps}.SessionCap(d.cfg.PerTestMbps)
	if cap < 1 {
		cap = 1
	}
	return cap, float64(cap) / d.cfg.AvgTestDuration.Seconds(), float64(cap)
}

// Registry exposes the dispatcher's server table for registration,
// heartbeats, drains, and the host's Advance clock loop.
func (d *Dispatcher) Registry() *Registry { return d.reg }

// Capacity reports the fleet-wide concurrent-session capacity at the
// dispatcher's per-test sizing.
func (d *Dispatcher) Capacity() int { return d.plan.ConcurrentCapacity(d.cfg.PerTestMbps) }

// Dispatch assigns client a ranked server list at elapsed time at. The
// top-ranked admissible server is charged one admission token and one
// session lease; the alternates back the client's mid-test failover. With
// every live server at capacity it returns a *errdefs.SaturatedError (match
// errors.Is(err, errdefs.ErrFleetSaturated)) carrying a retry-after hint.
//
// swiftvet:hotpath
func (d *Dispatcher) Dispatch(client ClientInfo, at time.Duration) (Assignment, error) {
	claim := client.ClaimMbps
	if claim <= 0 {
		claim = d.cfg.PerTestMbps
	}
	r := d.reg
	r.mu.Lock()
	defer r.mu.Unlock()

	ranked := d.rankLocked(client)
	if len(ranked) == 0 {
		r.metrics.rejectedTotal.Inc()
		r.trace.Record(at, obs.EventReject, float64(client.Key), 0, "no live servers")
		return Assignment{}, errNoLiveServers
	}
	primary := -1
	for i, idx := range ranked {
		if r.servers[idx].assignable() {
			primary = i
			break
		}
	}
	if primary < 0 {
		sat := &errdefs.SaturatedError{RetryAfter: d.retryAfterLocked(at), Servers: len(ranked)}
		r.metrics.rejectedTotal.Inc()
		r.trace.Record(at, obs.EventReject, float64(client.Key), sat.RetryAfter.Seconds(), "")
		return Assignment{}, sat
	}
	// Move the admitted primary to the front of the ranked list.
	ranked[0], ranked[primary] = ranked[primary], ranked[0]
	s := r.servers[ranked[0]]
	s.tokens--
	r.leaseSeq++
	expires := time.Duration(-1)
	if d.cfg.LeaseTTL > 0 {
		expires = at + d.cfg.LeaseTTL
	}
	s.claimLocked(r.leaseSeq, claim, expires)

	n := min(rankLength, len(ranked))
	servers := make([]ServerInfo, 0, n)
	for _, idx := range ranked[:n] {
		servers = append(servers, r.servers[idx].info)
	}
	r.metrics.assignmentsTotal.Inc()
	r.metrics.updateServer(s)
	r.trace.Record(at, obs.EventAssign, float64(client.Key), float64(s.live), s.info.Addr)
	return Assignment{
		Client:  client,
		Lease:   LeaseID{Server: s.info.ID, Seq: r.leaseSeq},
		Servers: servers,
		Token:   d.mintToken(s.info.ID, r.leaseSeq, at),
	}, nil
}

// mintToken authenticates one lease for the data plane on keyed fleets; the
// zero token on open ones. With TokenTTL set, the token carries an absolute
// unix-ms expiry — the configured epoch plus the caller-stamped elapsed
// time plus the TTL — so minting stays deterministic.
func (d *Dispatcher) mintToken(serverID int, seq uint64, at time.Duration) wire.Token {
	if d.cfg.AuthKey == 0 {
		return wire.Token{}
	}
	var expires uint64
	if d.cfg.TokenTTL > 0 {
		expires = d.cfg.TokenEpochMS + uint64((at + d.cfg.TokenTTL).Milliseconds())
	}
	return wire.MintToken(d.cfg.AuthKey, uint32(serverID), seq, expires)
}

// Reassign moves a session whose server died mid-test to the best surviving
// alternate of its assignment — the control-plane half of the client's
// K-silent-windows failover. Failover is not a new test start, so it
// bypasses the token bucket but still respects session caps. The returned
// assignment has the new primary in front and carries the new lease.
func (d *Dispatcher) Reassign(a Assignment, at time.Duration) (Assignment, error) {
	r := d.reg
	r.mu.Lock()
	defer r.mu.Unlock()

	claim := a.Client.ClaimMbps
	if claim <= 0 {
		claim = d.cfg.PerTestMbps
	}
	if old, err := r.serverLocked(a.Lease.Server); err == nil {
		if old.releaseLocked(a.Lease.Seq) {
			if old.state == StateDraining && old.live == 0 {
				r.finishDrainLocked(old)
				r.updateStateGaugesLocked()
			}
			r.metrics.updateServer(old)
		}
	}
	for _, info := range a.Servers {
		if info.ID == a.Lease.Server {
			continue
		}
		s, err := r.serverLocked(info.ID)
		if err != nil || !s.acceptsFailover() {
			continue
		}
		r.leaseSeq++
		expires := time.Duration(-1)
		if d.cfg.LeaseTTL > 0 {
			expires = at + d.cfg.LeaseTTL
		}
		s.claimLocked(r.leaseSeq, claim, expires)
		out := Assignment{
			Client: a.Client,
			Lease:  LeaseID{Server: s.info.ID, Seq: r.leaseSeq},
			Token:  d.mintToken(s.info.ID, r.leaseSeq, at),
		}
		out.Servers = append(out.Servers, s.info)
		for _, other := range a.Servers {
			if other.ID != s.info.ID && other.ID != a.Lease.Server {
				out.Servers = append(out.Servers, other)
			}
		}
		r.metrics.failoversTotal.Inc()
		r.metrics.updateServer(s)
		r.trace.Record(at, obs.EventAssign, float64(a.Client.Key), float64(s.live), s.info.Addr+" failover")
		return out, nil
	}
	sat := &errdefs.SaturatedError{RetryAfter: d.retryAfterLocked(at), Servers: len(a.Servers) - 1}
	r.metrics.rejectedTotal.Inc()
	r.trace.Record(at, obs.EventReject, float64(a.Client.Key), sat.RetryAfter.Seconds(), "failover")
	return Assignment{}, sat
}

// rankLocked orders the live servers for client by (latency estimate, load
// ratio, capacity headroom), with a seeded hash tie-break — deterministic
// for a fixed (seed, registry snapshot).
func (d *Dispatcher) rankLocked(client ClientInfo) []int {
	r := d.reg
	ranked := make([]int, 0, len(r.servers))
	for i, s := range r.servers {
		if s.state == StateLive {
			ranked = append(ranked, i)
		}
	}
	clientDom := domainIndex(client.Domain)
	sort.SliceStable(ranked, func(a, b int) bool {
		sa, sb := r.servers[ranked[a]], r.servers[ranked[b]]
		la := latencyEstimateMs(clientDom, domainIndex(sa.info.Domain))
		lb := latencyEstimateMs(clientDom, domainIndex(sb.info.Domain))
		if la != lb {
			return la < lb
		}
		ra, rb := loadRatio(sa), loadRatio(sb)
		if ra != rb {
			return ra < rb
		}
		ha, hb := headroom(sa), headroom(sb)
		if ha != hb {
			return ha > hb
		}
		ta := tieBreak(d.cfg.Seed, client.Key, sa.info.ID)
		tb := tieBreak(d.cfg.Seed, client.Key, sb.info.ID)
		if ta != tb {
			return ta < tb
		}
		return sa.info.ID < sb.info.ID
	})
	return ranked
}

// retryAfterLocked estimates how long from at until admission capacity frees
// up: for each live server, the wait until its token bucket refills past one
// token or its earliest live lease expires — whichever constraint binds —
// minimised across the fleet and floored at one heartbeat window.
func (d *Dispatcher) retryAfterLocked(at time.Duration) time.Duration {
	r := d.reg
	best := time.Duration(-1)
	for _, s := range r.servers {
		if s.state != StateLive {
			continue
		}
		var wait time.Duration
		if s.tokens < 1 && s.rate > 0 {
			wait = time.Duration((1 - s.tokens) / s.rate * float64(time.Second))
		}
		if s.cap > 0 && s.live >= s.cap {
			earliest := time.Duration(-1)
			for _, l := range s.leases {
				if !l.released && l.expires > 0 && (earliest < 0 || l.expires < earliest) {
					earliest = l.expires
				}
			}
			capWait := d.cfg.AvgTestDuration
			if earliest > 0 {
				capWait = earliest - at
			}
			if capWait > wait {
				wait = capWait
			}
		}
		if best < 0 || wait < best {
			best = wait
		}
	}
	if best < r.window {
		best = r.window
	}
	return best
}

func loadRatio(s *server) float64 {
	if s.cap <= 0 {
		return 0
	}
	return float64(s.live) / float64(s.cap)
}

func headroom(s *server) float64 {
	if s.cap <= 0 {
		return s.info.UplinkMbps - s.load
	}
	return float64(s.cap - s.live)
}

// domainIndex maps an IXP domain name to its index, -1 when unknown.
func domainIndex(domain string) int {
	for i, d := range deploy.IXPDomains {
		if d == domain {
			return i
		}
	}
	return -1
}

// latencyEstimateMs is the deterministic inter-domain latency model used for
// ranking: intra-domain 8 ms, inter-domain growing with ring distance across
// the eight IXP domains, 20 ms flat when either side is unplaced. It is an
// estimate for ordering, not a measurement — the client's PING-based
// selection still runs against the returned list.
func latencyEstimateMs(clientDom, serverDom int) float64 {
	if clientDom < 0 || serverDom < 0 {
		return 20
	}
	if clientDom == serverDom {
		return 8
	}
	dist := clientDom - serverDom
	if dist < 0 {
		dist = -dist
	}
	if n := len(deploy.IXPDomains); dist > n/2 {
		dist = n - dist
	}
	return 12 + 6*float64(dist)
}

// tieBreak is a splitmix64 hash of (seed, client, server): the deterministic
// coin that spreads equally attractive servers across clients.
func tieBreak(seed int64, client uint64, serverID int) uint64 {
	return stats.SplitMix64(uint64(seed) ^ client*stats.SplitMix64Gamma ^ uint64(serverID)<<32)
}
