package linksim

import (
	"fmt"
	"math"
	"math/rand"
	randv2 "math/rand/v2"
	"slices"
	"testing"
	"time"
)

// refLink and refFlow are Link and Flow as they stood before the flow table:
// one heap object per flow, the link holding pointers in open order, Close
// marking the flow and the next Advance dropping marked flows. Advance is the
// same arithmetic in the same order, merging impairments for every flow on
// every tick whether or not any hook exists, with Tick.Seconds() computed at
// run time; rtt is the per-flow RTT formula from before Link.RTT. Like Link,
// it draws capacity noise and dip starts from the seed's second stream.
type refLink struct {
	cfg       Config
	rng       *randv2.Rand
	capRng    *randv2.Rand
	now       time.Duration
	flows     []*refFlow
	closing   int
	noise     float64
	queueBits float64
	shapedMB  float64
	dipUntil  time.Duration
	state     LinkState
	haveState bool
}

type refFlow struct {
	link     *refLink
	offered  float64
	achieved float64
	bits     float64
	lost     bool
	closed   bool
	impair   func(at time.Duration) Impairment
}

func newRefLink(cfg Config, seed int64) *refLink {
	if cfg.BufferBDP <= 0 {
		cfg.BufferBDP = 1
	}
	l := &refLink{cfg: cfg, rng: randv2.New(randv2.NewPCG(uint64(seed), 0)), capRng: randv2.New(randv2.NewPCG(uint64(seed), 1))}
	if cfg.StateHook != nil {
		l.state = cfg.StateHook(0)
		l.haveState = true
	}
	return l
}

func (l *refLink) newFlow() *refFlow {
	f := &refFlow{link: l}
	l.flows = append(l.flows, f)
	return f
}

func (f *refFlow) setImpairment(h func(at time.Duration) Impairment) { f.impair = h }

func (f *refFlow) setOffered(mbps float64) {
	if mbps < 0 {
		mbps = 0
	}
	f.offered = mbps
}

func (f *refFlow) close() {
	if f.closed {
		return
	}
	f.closed = true
	f.offered = 0
	f.link.closing++
}

func (l *refLink) baseRTT() time.Duration {
	if l.haveState {
		return l.state.RTT
	}
	return l.cfg.RTT
}

func (l *refLink) baseCapacity() float64 {
	if l.haveState {
		return l.state.CapacityMbps
	}
	return l.cfg.CapacityMbps
}

func (l *refLink) rtt() time.Duration {
	cap := l.capacityNow()
	if cap <= 0 {
		return l.baseRTT()
	}
	queueDelay := time.Duration(l.queueBits / (cap * 1e6) * float64(time.Second))
	return l.baseRTT() + queueDelay
}

func (l *refLink) capacityNow() float64 {
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

func (l *refLink) advance() {
	if l.cfg.StateHook != nil {
		l.state = l.cfg.StateHook(l.now)
		l.haveState = true
	}
	sigma, lossRate := l.cfg.Fluctuation, l.cfg.LossRate
	if l.haveState {
		sigma, lossRate = l.state.Fluctuation, l.state.LossRate
	}
	const rho = 0.9
	if sigma > 0 {
		l.noise = rho*l.noise + math.Sqrt(1-rho*rho)*sigma*l.capRng.NormFloat64()
		if l.noise < -0.9 {
			l.noise = -0.9
		}
	} else if l.noise != 0 {
		l.noise *= rho
	}
	if d := l.cfg.Dipping; d != nil && l.now >= l.dipUntil {
		if l.capRng.Float64() < d.RatePerSec*Tick.Seconds() {
			l.dipUntil = l.now + d.Duration
		}
	}
	if l.closing > 0 {
		l.flows = slices.DeleteFunc(l.flows, func(f *refFlow) bool { return f.closed })
		l.closing = 0
	}
	var linkImp Impairment
	if l.cfg.Impair != nil {
		linkImp = l.cfg.Impair(l.now)
	}
	eff := make([]float64, len(l.flows))
	imps := make([]Impairment, len(l.flows))
	for i, f := range l.flows {
		var own Impairment
		if f.impair != nil {
			own = f.impair(l.now)
		}
		imp := mergeImpairments(linkImp, own)
		imps[i] = imp
		eff[i] = f.offered
		if imp.Down {
			eff[i] = 0
		} else if imp.CapMbps > 0 && eff[i] > imp.CapMbps {
			eff[i] = imp.CapMbps
		}
	}

	cap := l.capacityNow()
	shares := fairShareRef(cap, eff)

	tickSec := Tick.Seconds()
	var offeredSum float64
	for i, f := range l.flows {
		f.lost = false
		granted := shares[i]
		if p := imps[i].LossProb; p > 0 && granted > 0 && l.rng.Float64() < p {
			granted = 0
			f.lost = true
		}
		f.achieved = granted
		f.bits += granted * 1e6 * tickSec
		offeredSum += eff[i]
		if lossRate > 0 && eff[i] > 0 && l.rng.Float64() < lossRate {
			f.lost = true
		}
	}

	excessBits := (offeredSum - cap) * 1e6 * tickSec
	l.queueBits += excessBits
	if l.queueBits < 0 {
		l.queueBits = 0
	}
	bufferBits := l.cfg.BufferBDP * l.baseCapacity() * 1e6 * l.baseRTT().Seconds()
	if l.queueBits > bufferBits {
		l.queueBits = bufferBits
		for i, f := range l.flows {
			if eff[i] > shares[i] {
				f.lost = true
			}
		}
	}

	if l.cfg.Shaping != nil {
		var delivered float64
		for _, f := range l.flows {
			delivered += f.achieved
		}
		l.shapedMB += delivered * 1e6 * tickSec / 8 / 1e6
	}

	l.now += Tick
}

// lockstepConfigs are the link shapes the flow table must match the pointer
// flows on: no draw but noise, every static draw, a profile state machine,
// a link-wide fault hook that impairs every tick, and one that opens Down,
// LossProb and CapMbps windows in turn over quiet ticks. Rows with no hook of
// their own take the link's impairment without the merge the reference does,
// so these two pin that skip.
func lockstepConfigs() map[string]Config {
	states := [2]LinkState{
		{Name: "good", CapacityMbps: 150, RTT: 30 * time.Millisecond, LossRate: 0.02, Fluctuation: 0.06},
		{Name: "fade", CapacityMbps: 25, RTT: 70 * time.Millisecond, LossRate: 0.08, Fluctuation: 0.2},
	}
	return map[string]Config{
		"static": {CapacityMbps: 120, RTT: 30 * time.Millisecond, Fluctuation: 0.05},
		"lossy": {
			CapacityMbps: 120, RTT: 30 * time.Millisecond, LossRate: 0.03, Fluctuation: 0.08,
			Dipping: &Dips{RatePerSec: 1.5, Depth: 0.6, Duration: 120 * time.Millisecond},
			Shaping: &Shaper{BurstMB: 4, SustainedMbps: 60},
		},
		"statehook": {StateHook: func(at time.Duration) LinkState {
			return states[int(at/(700*time.Millisecond))%2]
		}},
		"impair": {
			CapacityMbps: 100, RTT: 40 * time.Millisecond, LossRate: 0.01,
			Impair: func(at time.Duration) Impairment {
				return Impairment{Down: at%time.Second < 40*time.Millisecond, LossProb: 0.05, CapMbps: 30}
			},
		},
		"impair-windows": {
			CapacityMbps: 90, RTT: 35 * time.Millisecond, LossRate: 0.01, Fluctuation: 0.05,
			Impair: func(at time.Duration) Impairment {
				switch phase := at % (900 * time.Millisecond); {
				case phase < 100*time.Millisecond:
					return Impairment{Down: true}
				case phase < 200*time.Millisecond:
					return Impairment{}
				case phase < 400*time.Millisecond:
					return Impairment{LossProb: 0.3}
				case phase < 500*time.Millisecond:
					return Impairment{}
				case phase < 700*time.Millisecond:
					return Impairment{CapMbps: 12}
				case phase < 800*time.Millisecond:
					// Not a probability a fault plan would give, but the
					// merge would have raised it to 0: the skip must not
					// care.
					return Impairment{LossProb: -0.5}
				}
				return Impairment{}
			},
		},
	}
}

// flowHooks are the per-flow fault hooks the lockstep test attaches: a burst
// loss, a rate cap, a periodic blackout, and a hook that impairs nothing.
var flowHooks = []func(at time.Duration) Impairment{
	func(time.Duration) Impairment { return Impairment{LossProb: 0.2} },
	func(time.Duration) Impairment { return Impairment{CapMbps: 7} },
	func(at time.Duration) Impairment {
		return Impairment{Down: at%(300*time.Millisecond) < 60*time.Millisecond}
	},
	func(time.Duration) Impairment { return Impairment{} },
}

// TestFlowTableMatchesPointerFlows runs a Link and a refLink in lockstep on
// the same seed, five seeds × 400 ticks per config. Every tick opens, closes
// and re-rates random flows, attaches and clears per-flow hooks, and pokes
// the setters of flows already closed; then it compares every flow ever
// opened, closed ones included — delivered bytes, achieved rate and loss
// signal — by their bits, the link's RTT, and the link's hook count. On a
// link with a fault hook, hooked and hook-less rows must share some ticks.
func TestFlowTableMatchesPointerFlows(t *testing.T) {
	for name, cfg := range lockstepConfigs() {
		for seed := int64(1); seed <= 5; seed++ {
			t.Run(fmt.Sprintf("%s/%d", name, seed), func(t *testing.T) {
				l, ref := MustNew(cfg, seed), newRefLink(cfg, seed)
				rng := rand.New(rand.NewSource(seed))
				var flows []*Flow
				var refs []*refFlow
				open := func() {
					f, r := l.NewFlow(), ref.newFlow()
					offered := rng.Float64() * 60
					f.SetOffered(offered)
					r.setOffered(offered)
					flows, refs = append(flows, f), append(refs, r)
				}
				for range 6 {
					open()
				}
				mixed := 0 // ticks with hooked and hook-less rows both open
				for tick := 0; tick < 400; tick++ {
					for range rng.Intn(3) {
						open()
					}
					for range rng.Intn(3) {
						i := rng.Intn(len(flows))
						flows[i].Close()
						refs[i].close()
					}
					for range rng.Intn(4) {
						i := rng.Intn(len(flows))
						offered := rng.Float64()*80 - 5 // some negative: clamped to 0
						flows[i].SetOffered(offered)
						refs[i].setOffered(offered)
					}
					for range rng.Intn(3) {
						i := rng.Intn(len(flows))
						var h func(time.Duration) Impairment
						if k := rng.Intn(len(flowHooks) + 2); k < len(flowHooks) {
							h = flowHooks[k]
						}
						flows[i].SetImpairment(h)
						refs[i].setImpairment(h)
					}
					l.Advance()
					ref.advance()
					for i, f := range flows {
						r := refs[i]
						if math.Float64bits(f.DeliveredBytes()) != math.Float64bits(r.bits/8) ||
							math.Float64bits(f.Achieved()) != math.Float64bits(r.achieved) ||
							f.LossSignal() != r.lost {
							t.Fatalf("tick %d flow %d (closed %v): delivered %v achieved %v loss %v, pointer flows %v %v %v",
								tick, i, f.closed, f.DeliveredBytes(), f.Achieved(), f.LossSignal(), r.bits/8, r.achieved, r.lost)
						}
					}
					if got, want := l.RTT(), ref.rtt(); got != want {
						t.Fatalf("tick %d: RTT %v, pointer flows %v", tick, got, want)
					}
					hooked, open := 0, 0
					for _, row := range l.flows {
						if !row.closed {
							open++
							if row.impair != nil {
								hooked++
							}
						}
					}
					if l.hooked != hooked {
						t.Fatalf("tick %d: hooked = %d, %d open rows hold a hook", tick, l.hooked, hooked)
					}
					if hooked > 0 && hooked < open {
						mixed++
					}
				}
				if cfg.Impair != nil && mixed == 0 {
					t.Fatal("no tick had hooked and hook-less rows open together")
				}
			})
		}
	}
}
