// Package linksim is a virtual-time emulator of a mobile access link. It is
// the substrate on which every bandwidth-testing experiment in this
// repository runs: BTS-APP's probing-by-flooding, the FAST and FastBTS
// baselines, Swiftest's data-driven probing, and the TCP ramp-up study of
// Figure 17.
//
// The emulator advances in fixed ticks of virtual time. Each tick the link
// has an instantaneous capacity (base capacity modulated by multiplicative
// fluctuation noise, optional episodic dips, and an optional token-bucket
// traffic shaper), which is divided across the active flows by max-min
// fair sharing — the same proportional-fair behaviour that
// base stations and APs implement (§5.1). A drop-tail queue models buffering:
// offered traffic beyond capacity accumulates queueing delay, and overflow
// produces loss signals that drive the TCP congestion-control models in
// package cc.
//
// Because time is virtual, a full 10-second BTS-APP test simulates in
// microseconds, making it affordable to regenerate every figure of the paper
// inside `go test -bench`.
package linksim

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"
)

// Tick is the emulator's time step. All rate changes and samples resolve at
// this granularity; the 50 ms bandwidth samples used by every BTS correspond
// to five ticks.
const Tick = 10 * time.Millisecond

// TickSeconds is Tick in seconds, folded at compile time. It is bit-equal to
// Tick.Seconds(): both round 1e7/1e9 to the nearest float64.
const TickSeconds = float64(Tick) / float64(time.Second)

// Shaper models ISP/AP traffic shaping: a token bucket that allows BurstMB of
// unshaped traffic, after which throughput is clamped to SustainedMbps. The
// paper observes such shaping as the cause of the >30 % deviation tail in
// Figure 22.
type Shaper struct {
	BurstMB       float64 // unshaped initial allowance
	SustainedMbps float64 // post-burst clamp
}

// Dips models episodic capacity drops — the bursty "severe network
// fluctuations" §5.3 observes on some links, where samples "suddenly dropped
// oftentimes". Dips start as a Poisson process and depress capacity by Depth
// for Duration.
type Dips struct {
	RatePerSec float64       // expected dip starts per second
	Depth      float64       // fractional capacity loss during a dip (0–1)
	Duration   time.Duration // dip length
}

// LinkState is the per-tick operating point of a multi-state link profile:
// the base parameters a profile state machine (package ranprofile) hands the
// emulator each tick. When a StateHook is installed these values replace the
// static CapacityMbps/RTT/LossRate/Fluctuation fields of Config, so one link
// can fade, hand over, sleep and recover mid-test.
type LinkState struct {
	// Name labels the state ("good", "fade", "handover", ...) for traces.
	Name string
	// CapacityMbps is the bottleneck capacity while this state holds.
	CapacityMbps float64
	// RTT is the base propagation RTT while this state holds.
	RTT time.Duration
	// LossRate is the per-tick spurious loss probability in this state.
	LossRate float64
	// Fluctuation is the relative capacity-noise s.d. in this state.
	Fluctuation float64
}

// Config describes an emulated access link.
type Config struct {
	// CapacityMbps is the base bottleneck capacity of the access link.
	CapacityMbps float64
	// RTT is the base round-trip time, before queueing delay.
	RTT time.Duration
	// LossRate is the per-tick probability of a spurious (non-congestion)
	// loss signal, modelling the random losses common in cellular networks.
	LossRate float64
	// Fluctuation is the relative standard deviation of per-tick
	// multiplicative capacity noise (e.g. 0.05 = 5 %). The noise is an
	// AR(1) process so consecutive samples are correlated like real links.
	Fluctuation float64
	// BufferBDP sizes the bottleneck queue in multiples of the
	// bandwidth-delay product. Zero means the default of 1.
	BufferBDP float64
	// Shaping, if non-nil, applies token-bucket traffic shaping.
	Shaping *Shaper
	// Dipping, if non-nil, adds episodic capacity drops.
	Dipping *Dips
	// StateHook, if non-nil, drives the link from a multi-state profile:
	// it is evaluated once per tick (with the current virtual time) and the
	// returned LinkState overrides CapacityMbps, RTT, LossRate and
	// Fluctuation for that tick. With a hook installed those four static
	// fields become optional. Hooks must be deterministic functions of the
	// evaluation time for seeded reruns to replay byte-identically.
	StateHook func(at time.Duration) LinkState
	// Impair, if non-nil, is a link-wide fault hook evaluated once per tick
	// and merged into every flow's own impairment: Down silences the whole
	// access link, LossProb burst-drops every flow, CapMbps clamps each
	// flow's offered rate. It lets one fault plan hit baselines and probes
	// that open flows internally, modelling RAN-side (not server-side)
	// faults.
	Impair func(at time.Duration) Impairment
}

func (c Config) validate() error {
	// With a profile state machine attached the per-tick LinkState supplies
	// capacity and RTT, so the static fields may stay zero.
	if c.StateHook == nil {
		if c.CapacityMbps <= 0 {
			return fmt.Errorf("linksim: capacity %g Mbps must be positive", c.CapacityMbps)
		}
		if c.RTT <= 0 {
			return fmt.Errorf("linksim: RTT %v must be positive", c.RTT)
		}
	}
	if c.LossRate < 0 || c.LossRate >= 1 {
		return fmt.Errorf("linksim: loss rate %g out of [0,1)", c.LossRate)
	}
	return nil
}

// Link is one emulated access link carrying zero or more flows.
type Link struct {
	cfg       Config
	rng       *rand.Rand // per-flow draws: burst and spurious loss
	capSrc    rand.PCG   // capacity draws: AR(1) noise and dip starts
	capRng    rand.Rand  // reads capSrc; held by value, so seeding allocates nothing
	now       time.Duration
	flows     []flowRow     // the flow table, in open order; closed rows leave at the next Advance
	closing   int           // rows closed since the last Advance pruned them
	hooked    int           // open rows with a non-nil impair hook
	noise     float64       // AR(1) state of the fluctuation process
	queueBits float64       // bottleneck queue occupancy in bits
	shapedMB  float64       // cumulative traffic counted against the shaper burst
	dipUntil  time.Duration // episodic dip active until this virtual time
	capMbit   float64       // ∫cap dt: the capacity offered so far, in Mbit
	state     LinkState     // current profile state, valid when haveState
	haveState bool          // a StateHook has been evaluated at least once

	// The queue's buffer in bits, BufferBDP × the base BDP, and the base
	// capacity and RTT it was computed from: it moves only with the
	// profile state, so Advance recomputes it only when they change. The
	// zero values agree with each other, so a new link needs no priming.
	bufBits float64
	bufCap  float64
	bufRTT  time.Duration

	// Per-tick scratch, sized to the flow count and reused across Advance
	// calls: effective offered rates, impairment states (sized only once a
	// tick merges impairments), fair shares, and the max-min working set of
	// still-unsatisfied flow indices.
	effScratch    []float64
	impScratch    []Impairment
	shareScratch  []float64
	activeScratch []int
}

// New returns a Link with the given configuration, seeded deterministically.
// The seed contract is replay: the same (cfg, seed) yields the same link,
// tick for tick, on every run and platform. Which noise stream a seed names
// belongs to the generator behind it, not to the contract. Seeding is O(1),
// so a link costs its ticks, not its set-up.
//
// The seed feeds two streams. Capacity draws (AR(1) noise, dip starts) come
// from one and per-flow draws (burst loss, spurious loss) from the other, so
// the capacity path before shaping is a function of (cfg, seed) alone: open
// flows, offered rates, impairments and loss draws never move it. Contestants
// run on links of one seed therefore measure the same capacity. Shaping stays
// per link, since it counts the bytes this link delivered.
func New(cfg Config, seed int64) (*Link, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.BufferBDP <= 0 {
		cfg.BufferBDP = 1
	}
	l := &Link{cfg: cfg, rng: rand.New(rand.NewPCG(uint64(seed), 0))}
	l.capSrc.Seed(uint64(seed), 1)
	l.capRng = *rand.New(&l.capSrc)
	if cfg.StateHook != nil {
		// Prime the state so capacity and RTT are defined before the first
		// Advance (Flow.RTT, buffer sizing). Hooks are deterministic in the
		// evaluation time, so Advance re-reading tick 0 sees the same state.
		l.state = cfg.StateHook(0)
		l.haveState = true
	}
	return l, nil
}

// MustNew is New, panicking on configuration errors.
func MustNew(cfg Config, seed int64) *Link {
	l, err := New(cfg, seed)
	if err != nil {
		panic(err)
	}
	return l
}

// Now reports the current virtual time.
func (l *Link) Now() time.Duration { return l.now }

// Config returns the link's configuration.
func (l *Link) Config() Config { return l.cfg }

// CapacityMbit reports ∫cap dt over every Advance so far, in Mbit: the
// capacity the link offered before fair sharing. Reading it draws nothing.
func (l *Link) CapacityMbit() float64 { return l.capMbit }

// BaseRTT reports the current propagation RTT: the active profile state's
// RTT when a StateHook drives the link, the configured RTT otherwise.
func (l *Link) BaseRTT() time.Duration {
	if l.haveState {
		return l.state.RTT
	}
	return l.cfg.RTT
}

// baseCapacity is the pre-noise bottleneck capacity this tick.
func (l *Link) baseCapacity() float64 {
	if l.haveState {
		return l.state.CapacityMbps
	}
	return l.cfg.CapacityMbps
}

// fluctuationNow is the capacity-noise s.d. this tick.
func (l *Link) fluctuationNow() float64 {
	if l.haveState {
		return l.state.Fluctuation
	}
	return l.cfg.Fluctuation
}

// lossRateNow is the spurious per-tick loss probability this tick.
func (l *Link) lossRateNow() float64 {
	if l.haveState {
		return l.state.LossRate
	}
	return l.cfg.LossRate
}

// Flow is one traffic flow over a Link. A sender (congestion-control model or
// UDP pacer) sets the flow's offered rate each tick; the link reports what
// was actually delivered.
//
// A Flow is a handle on its row of the link's flow table. While the flow is
// open, row is its index there; Close freezes the three values the readers
// report, after which the row index may belong to another flow.
type Flow struct {
	link     *Link
	row      int
	closed   bool
	lost     bool    // frozen at Close
	achieved float64 // frozen at Close
	bits     float64 // frozen at Close
}

// flowRow is one open flow's per-tick state. A link keeps its rows
// contiguous, in open order, so a tick walks memory instead of pointers.
type flowRow struct {
	flow     *Flow
	offered  float64 // Mbps the sender wants to push this tick
	achieved float64 // Mbps actually delivered last tick
	bits     float64 // cumulative delivered bits
	lost     bool    // loss signal observed last tick
	closed   bool    // closed since the last Advance; pruned by the next
	impair   func(at time.Duration) Impairment
}

// Impairment is the per-tick fault state applied to one flow — the
// emulator-side hook of the fault-injection layer (package faults). The
// zero value impairs nothing.
type Impairment struct {
	// Down silences the flow's sender entirely: nothing is offered and
	// nothing is delivered, releasing the flow's fair share to the other
	// flows — an emulated server blackout.
	Down bool
	// LossProb is the probability that this tick's entire delivery is
	// lost in a burst (drawn from the link's seeded rng, so runs stay
	// deterministic).
	LossProb float64
	// CapMbps, when positive, clamps the flow's offered rate — an
	// emulated per-server rate cap.
	CapMbps float64
}

// SetImpairment attaches a fault hook queried once per tick at the current
// virtual time, before capacity is shared. A nil hook clears it. It does
// nothing on a closed flow.
func (f *Flow) SetImpairment(h func(at time.Duration) Impairment) {
	if f.closed {
		return
	}
	r := &f.link.flows[f.row]
	switch {
	case r.impair == nil && h != nil:
		f.link.hooked++
	case r.impair != nil && h == nil:
		f.link.hooked--
	}
	r.impair = h
}

// mergeImpairments combines the link-wide fault state with one flow's own:
// blackout wins, loss probabilities take the worse of the two, and rate caps
// take the tighter positive clamp.
func mergeImpairments(link, flow Impairment) Impairment {
	out := Impairment{
		Down:     link.Down || flow.Down,
		LossProb: math.Max(link.LossProb, flow.LossProb),
		CapMbps:  link.CapMbps,
	}
	if flow.CapMbps > 0 && (out.CapMbps <= 0 || flow.CapMbps < out.CapMbps) {
		out.CapMbps = flow.CapMbps
	}
	return out
}

// NewFlow attaches a new idle flow to the link.
func (l *Link) NewFlow() *Flow {
	f := &Flow{link: l, row: len(l.flows)}
	l.flows = append(l.flows, flowRow{flow: f})
	return f
}

// SetOffered sets the rate (Mbps) the sender will push during subsequent
// ticks. Negative values are treated as zero. It does nothing on a closed
// flow.
func (f *Flow) SetOffered(mbps float64) {
	if f.closed {
		return
	}
	if mbps < 0 {
		mbps = 0
	}
	f.link.flows[f.row].offered = mbps
}

// Achieved reports the rate (Mbps) delivered to this flow during the last
// tick.
func (f *Flow) Achieved() float64 {
	if f.closed {
		return f.achieved
	}
	return f.link.flows[f.row].achieved
}

// DeliveredBytes reports the cumulative bytes delivered to this flow.
func (f *Flow) DeliveredBytes() float64 {
	if f.closed {
		return f.bits / 8
	}
	return f.link.flows[f.row].bits / 8
}

// LossSignal reports whether the flow experienced loss during the last tick
// (congestion overflow or spurious wireless loss).
func (f *Flow) LossSignal() bool {
	if f.closed {
		return f.lost
	}
	return f.link.flows[f.row].lost
}

// RTT reports the flow's current round-trip time: the link's, which every
// flow on it shares.
func (f *Flow) RTT() time.Duration { return f.link.RTT() }

// Close detaches the flow from the link; subsequent ticks deliver nothing,
// and the readers keep reporting the last tick's values. It freezes those
// values in the handle and only marks the row: the next Advance drops every
// closed row in one order-preserving pass, so closing is O(1) however many
// flows the link holds.
func (f *Flow) Close() {
	if f.closed {
		return
	}
	l := f.link
	r := &l.flows[f.row]
	f.closed = true
	f.achieved, f.bits, f.lost = r.achieved, r.bits, r.lost
	r.closed = true
	if r.impair != nil {
		l.hooked--
	}
	l.closing++
}

// prune drops the rows closed since the last Advance. The survivors keep
// their order, and only the handles of rows that moved are re-pointed; the
// vacated tail is cleared so its handles and hooks can be collected.
//
// swiftvet:hotpath
func (l *Link) prune() {
	kept := 0
	for i := range l.flows {
		if l.flows[i].closed {
			continue
		}
		if kept != i {
			l.flows[kept] = l.flows[i]
			l.flows[kept].flow.row = kept
		}
		kept++
	}
	clear(l.flows[kept:])
	l.flows = l.flows[:kept]
	l.closing = 0
}

// RTT reports the link's current round-trip time: the base RTT plus the
// queueing delay at the bottleneck. It is link-wide, so a sender driving
// several flows reads it once per tick.
func (l *Link) RTT() time.Duration {
	cap := l.capacityNow()
	if cap <= 0 {
		return l.BaseRTT()
	}
	queueDelay := time.Duration(l.queueBits / (cap * 1e6) * float64(time.Second))
	return l.BaseRTT() + queueDelay
}

// capacityNow computes the link's instantaneous capacity before fair sharing.
func (l *Link) capacityNow() float64 {
	cap := l.baseCapacity() * (1 + l.noise)
	if s := l.cfg.Shaping; s != nil && l.shapedMB >= s.BurstMB {
		cap = math.Min(cap, s.SustainedMbps)
	}
	if d := l.cfg.Dipping; d != nil && l.now < l.dipUntil {
		cap *= 1 - d.Depth
	}
	if cap < 0.1 {
		cap = 0.1
	}
	return cap
}

// Advance moves virtual time forward by one Tick, allocating capacity to
// flows max-min fairly and updating queue and loss state.
//
// swiftvet:hotpath
func (l *Link) Advance() {
	// A profile state machine, when installed, redefines the link's base
	// parameters for this tick before anything else is computed.
	if l.cfg.StateHook != nil {
		l.state = l.cfg.StateHook(l.now)
		l.haveState = true
	}
	// Evolve the AR(1) fluctuation state: ρ·prev + √(1−ρ²)·σ·ε keeps the
	// stationary s.d. at the configured fluctuation while correlating
	// adjacent ticks. A calm profile state (σ = 0) decays residual noise
	// instead of freezing it.
	const rho = 0.9
	if sigma := l.fluctuationNow(); sigma > 0 {
		l.noise = rho*l.noise + math.Sqrt(1-rho*rho)*sigma*l.capRng.NormFloat64()
		if l.noise < -0.9 {
			l.noise = -0.9
		}
	} else if l.noise != 0 {
		l.noise *= rho
	}
	// Start episodic dips (Poisson arrivals).
	if d := l.cfg.Dipping; d != nil && l.now >= l.dipUntil {
		if l.capRng.Float64() < d.RatePerSec*TickSeconds {
			l.dipUntil = l.now + d.Duration
		}
	}
	// Drop the flows closed since the last tick. The survivors keep their
	// order, so max-min sharing and the per-flow draws below walk the same
	// rows an eager removal would have left.
	if l.closing > 0 {
		l.prune()
	}
	n := len(l.flows)
	if cap(l.effScratch) < n {
		l.effScratch = make([]float64, n)
		l.shareScratch = make([]float64, n)
		l.activeScratch = make([]int, n)
	}
	eff := l.effScratch[:n]
	// Evaluate the link-wide fault hook once, then per-flow impairments,
	// and derive the effective offered rates the link sees this tick. With
	// no hook anywhere every merged impairment is the zero value, which
	// changes no rate and draws nothing, so the merge is skipped. A row
	// with no hook of its own takes the link's impairment as is: merging it
	// with the zero value changes no field read below.
	impaired := l.hooked > 0 || l.cfg.Impair != nil
	var imps []Impairment
	if impaired {
		var linkImp Impairment
		if l.cfg.Impair != nil {
			linkImp = l.cfg.Impair(l.now)
		}
		if cap(l.impScratch) < n {
			l.impScratch = make([]Impairment, n)
		}
		imps = l.impScratch[:n]
		for i := range l.flows {
			r := &l.flows[i]
			imp := linkImp
			if r.impair != nil {
				imp = mergeImpairments(linkImp, r.impair(l.now))
			}
			imps[i] = imp
			eff[i] = r.offered
			if imp.Down {
				eff[i] = 0
			} else if imp.CapMbps > 0 && eff[i] > imp.CapMbps {
				eff[i] = imp.CapMbps
			}
		}
	} else {
		for i := range l.flows {
			eff[i] = l.flows[i].offered
		}
	}

	cap := l.capacityNow()
	l.capMbit += cap * TickSeconds
	shares := l.fairShare(cap, eff)

	lossRate := l.lossRateNow()
	var offeredSum float64
	for i := range l.flows {
		r := &l.flows[i]
		r.lost = false
		granted := shares[i]
		if impaired {
			if p := imps[i].LossProb; p > 0 && granted > 0 && l.rng.Float64() < p {
				// Burst loss: the whole tick's delivery vanishes.
				granted = 0
				r.lost = true
			}
		}
		r.achieved = granted
		deliveredBits := granted * 1e6 * TickSeconds
		r.bits += deliveredBits
		offeredSum += eff[i]
		if lossRate > 0 && eff[i] > 0 && l.rng.Float64() < lossRate {
			r.lost = true
		}
	}

	// Queue dynamics: excess offered traffic accumulates; overflow beyond
	// the buffer produces congestion-loss signals for all backlogged flows.
	excessBits := (offeredSum - cap) * 1e6 * TickSeconds
	if excessBits > 0 {
		l.queueBits += excessBits
	} else {
		l.queueBits += excessBits // drains when under-offered
		if l.queueBits < 0 {
			l.queueBits = 0
		}
	}
	if base, rtt := l.baseCapacity(), l.BaseRTT(); base != l.bufCap || rtt != l.bufRTT {
		l.bufBits, l.bufCap, l.bufRTT = l.cfg.BufferBDP*base*1e6*rtt.Seconds(), base, rtt
	}
	if l.queueBits > l.bufBits {
		l.queueBits = l.bufBits
		for i := range l.flows {
			if eff[i] > shares[i] {
				l.flows[i].lost = true
			}
		}
	}

	// Account shaped traffic.
	if l.cfg.Shaping != nil {
		var delivered float64
		for i := range l.flows {
			delivered += l.flows[i].achieved
		}
		l.shapedMB += delivered * 1e6 * TickSeconds / 8 / 1e6
	}

	l.now += Tick
}

// fairShare allocates cap Mbps across flows max-min fairly given their
// effective offered rates (post-impairment). The returned slice is indexed
// like l.flows and aliases the link's scratch, which Advance has sized to the
// flow count: it is valid only until the next call, and Advance consumes it
// before returning.
//
// swiftvet:hotpath
func (l *Link) fairShare(cap float64, offered []float64) []float64 {
	n := len(l.flows)
	shares := l.shareScratch[:n]
	clear(shares)
	remaining := cap
	active := l.activeScratch[:n]
	live := 0
	for i := range l.flows {
		if offered[i] > 0 {
			active[live] = i
			live++
		}
	}
	// Iteratively satisfy flows below the equal share; classic max-min.
	// Unsatisfied flows are compacted to the front of active, in order.
	for live > 0 && remaining > 1e-12 {
		equal := remaining / float64(live)
		progressed := false
		kept := 0
		for _, i := range active[:live] {
			want := offered[i] - shares[i]
			if want <= equal {
				shares[i] += want
				remaining -= want
				progressed = true
			} else {
				active[kept] = i
				kept++
			}
		}
		live = kept
		if !progressed {
			// Everyone wants more than the equal share: split evenly.
			for _, i := range active[:live] {
				shares[i] += equal
			}
			remaining = 0
			break
		}
	}
	return shares
}

// SampleInterval is the common 50 ms sampling period of BTS-APP, Speedtest
// and Swiftest (§2, §5.1).
const SampleInterval = 50 * time.Millisecond
