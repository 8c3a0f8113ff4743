// Package deploy implements §5.2's cost-effective server deployment: workload
// estimation from recent test activity, an integer-linear-programming server
// purchase plan solved with branch-and-bound, placement across the eight
// Chinese core-IXP domains, and a utilization simulator that regenerates
// Figure 26.
//
// The purchase problem: given a catalogue of server configurations i with
// per-unit egress bandwidth bᵢ (Mbps), monthly price pᵢ, and availability aᵢ,
// choose integer counts nᵢ ∈ [0, aᵢ] minimising Σ nᵢpᵢ subject to
// Σ nᵢbᵢ ≥ (1+margin)·W, where W is the estimated workload bandwidth and
// margin is the 5–10 % burst headroom of §5.2. The problem is NP-hard; the
// solver follows the paper's branch-and-bound approach with a fractional
// (LP-relaxation) lower bound, which is exact on every instance it closes.
package deploy

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// ServerConfig is one purchasable server configuration (cf. the OneProvider
// catalogue of §5.2: 336 configurations, 100 Mbps–10 Gbps, $10.41–$2609/mo).
type ServerConfig struct {
	Name          string
	BandwidthMbps float64 // per-server egress bandwidth
	PricePerMonth float64 // USD
	Available     int     // units purchasable
}

// Purchase is one line of a purchase plan.
type Purchase struct {
	Config ServerConfig
	Count  int
}

// Plan is a complete server purchase plan.
type Plan struct {
	Purchases     []Purchase
	TotalMbps     float64
	MonthlyCost   float64
	RequiredMbps  float64 // the covered requirement including margin
	NodesExplored int     // branch-and-bound accounting
}

// Servers reports the total number of servers purchased.
func (p Plan) Servers() int {
	var n int
	for _, pu := range p.Purchases {
		n += pu.Count
	}
	return n
}

// SessionCap reports how many concurrent tests one server of this
// configuration can carry when each test claims perTestMbps of egress — the
// admission cap the fleet dispatcher enforces per server. Non-positive
// perTestMbps means uncapped (0).
func (c ServerConfig) SessionCap(perTestMbps float64) int {
	if perTestMbps <= 0 || c.BandwidthMbps <= 0 {
		return 0
	}
	return int(c.BandwidthMbps / perTestMbps)
}

// ConcurrentCapacity reports how many tests of perTestMbps each the plan's
// fleet can serve concurrently: the sum of the per-server session caps. This
// is the §5.2 sizing identity the dispatcher's admission control is derived
// from; keeping it here stops the cap arithmetic from being re-derived (and
// diverging) in the fleet layer. Non-positive perTestMbps returns 0.
func (p Plan) ConcurrentCapacity(perTestMbps float64) int {
	if perTestMbps <= 0 {
		return 0
	}
	var total int
	for _, pu := range p.Purchases {
		total += pu.Count * pu.Config.SessionCap(perTestMbps)
	}
	return total
}

// Workload describes recent bandwidth-testing activity, the §5.2 inputs for
// capacity estimation.
type Workload struct {
	TestsPerDay     float64       // e.g. 10_000 in the Swiftest evaluation
	AvgTestDuration time.Duration // e.g. ≈1.2 s for Swiftest, 10 s for BTS-APP
	AvgBandwidth    float64       // mean access bandwidth of the user base (Mbps)
	PeakFactor      float64       // peak-to-mean concurrency ratio; 0 selects 3
}

// RequiredMbps estimates the aggregate egress bandwidth needed to serve the
// workload: expected concurrent tests × average per-test bandwidth × peak
// factor.
func (w Workload) RequiredMbps() float64 {
	pf := w.PeakFactor
	if pf <= 0 {
		pf = 3
	}
	concurrent := w.TestsPerDay * w.AvgTestDuration.Seconds() / (24 * 3600)
	return concurrent * w.AvgBandwidth * pf
}

// PlanOptions are optional constraints on PlanPurchase.
type PlanOptions struct {
	// MinServers is the geographic-coverage constraint: the fleet must
	// contain at least this many servers so it can be spread across the
	// IXP domains (§5.2 deploys "geo-distributed budget servers"; the
	// Swiftest fleet uses 20 across 8 domains). Zero means no constraint.
	MinServers int
}

// PlanPurchase solves the §5.2 ILP: cover requiredMbps·(1+margin) at minimum
// monthly cost. margin is the burst headroom (5–10 % per the operation
// team's practice); margin ≤ 0 selects 0.075.
func PlanPurchase(catalogue []ServerConfig, requiredMbps, margin float64, opts ...PlanOptions) (Plan, error) {
	if requiredMbps <= 0 {
		return Plan{}, fmt.Errorf("deploy: required bandwidth %g must be positive", requiredMbps)
	}
	if margin <= 0 {
		margin = 0.075
	}
	var opt PlanOptions
	if len(opts) > 0 {
		opt = opts[0]
	}
	need := requiredMbps * (1 + margin)

	// Keep only purchasable configurations, sorted by cost per Mbps: the
	// branch order that makes the fractional bound tight.
	configs := make([]ServerConfig, 0, len(catalogue))
	var maxTotal float64
	var maxUnits int
	for _, c := range catalogue {
		if c.BandwidthMbps > 0 && c.Available > 0 && c.PricePerMonth >= 0 {
			configs = append(configs, c)
			maxTotal += c.BandwidthMbps * float64(c.Available)
			maxUnits += c.Available
		}
	}
	if maxTotal < need {
		return Plan{}, fmt.Errorf("deploy: catalogue tops out at %.0f Mbps, need %.0f", maxTotal, need)
	}
	if maxUnits < opt.MinServers {
		return Plan{}, fmt.Errorf("deploy: catalogue offers %d units, need %d for coverage", maxUnits, opt.MinServers)
	}
	sort.Slice(configs, func(i, j int) bool {
		return configs[i].PricePerMonth/configs[i].BandwidthMbps <
			configs[j].PricePerMonth/configs[j].BandwidthMbps
	})

	s := &solver{configs: configs, need: need, minServers: opt.MinServers, bestCost: math.Inf(1)}
	s.counts = make([]int, len(configs))
	s.branch(0, 0, 0, 0)
	if math.IsInf(s.bestCost, 1) {
		return Plan{}, errors.New("deploy: no feasible plan found")
	}

	plan := Plan{RequiredMbps: need, MonthlyCost: s.bestCost, NodesExplored: s.nodes}
	for i, n := range s.best {
		if n > 0 {
			plan.Purchases = append(plan.Purchases, Purchase{Config: configs[i], Count: n})
			plan.TotalMbps += float64(n) * configs[i].BandwidthMbps
		}
	}
	return plan, nil
}

type solver struct {
	configs    []ServerConfig
	need       float64
	minServers int
	counts     []int
	best       []int
	bestCost   float64
	nodes      int
}

// lowerBound is the LP-relaxation bound: cover the remaining requirement
// fractionally with the cheapest-per-Mbps remaining configs (they are
// pre-sorted), allowing a fractional final unit.
func (s *solver) lowerBound(idx int, gotMbps float64) float64 {
	remaining := s.need - gotMbps
	if remaining <= 0 {
		return 0
	}
	var bound float64
	for i := idx; i < len(s.configs) && remaining > 0; i++ {
		c := s.configs[i]
		capacity := c.BandwidthMbps * float64(c.Available)
		if capacity >= remaining {
			bound += remaining / c.BandwidthMbps * c.PricePerMonth
			return bound
		}
		bound += float64(c.Available) * c.PricePerMonth
		remaining -= capacity
	}
	return math.Inf(1) // cannot cover
}

func (s *solver) branch(idx int, cost, gotMbps float64, units int) {
	s.nodes++
	if gotMbps >= s.need && units >= s.minServers {
		if cost < s.bestCost {
			s.bestCost = cost
			s.best = append([]int(nil), s.counts...)
		}
		return
	}
	if idx >= len(s.configs) {
		return
	}
	if cost+s.lowerBound(idx, gotMbps) >= s.bestCost {
		return // prune: even the fractional optimum cannot beat the incumbent
	}
	c := s.configs[idx]
	// Try the largest counts first: coverage-heavy branches find feasible
	// incumbents quickly, sharpening subsequent pruning.
	maxN := c.Available
	needUnits := int(math.Ceil(math.Max(0, s.need-gotMbps) / c.BandwidthMbps))
	if short := s.minServers - units; short > needUnits {
		needUnits = short // the coverage constraint may demand more units
	}
	if needUnits < maxN {
		maxN = needUnits
	}
	for n := maxN; n >= 0; n-- {
		s.counts[idx] = n
		s.branch(idx+1, cost+float64(n)*c.PricePerMonth, gotMbps+float64(n)*c.BandwidthMbps, units+n)
	}
	s.counts[idx] = 0
}

// IXPDomains are the eight Internet-exchange domains of Mainland China
// (§5.2); test servers should sit close to these.
var IXPDomains = []string{
	"Beijing", "Shanghai", "Guangzhou", "Nanjing",
	"Shenyang", "Wuhan", "Chengdu", "Xi'an",
}

// Placement assigns purchased servers to IXP domains.
type Placement struct {
	Domain  string
	Servers []ServerConfig
	Mbps    float64
}

// PlaceServers spreads a plan's servers across the IXP domains in proportion
// to each domain's workload share, keeping per-domain capacity as even as the
// share allows (§5.2: "evenly placed in these domains and as close to the
// core IXPs as possible"). shares must be positive and one per domain; nil
// selects equal shares.
func PlaceServers(plan Plan, shares []float64) ([]Placement, error) {
	if shares == nil {
		shares = make([]float64, len(IXPDomains))
		for i := range shares {
			shares[i] = 1
		}
	}
	if len(shares) != len(IXPDomains) {
		return nil, fmt.Errorf("deploy: %d shares for %d domains", len(shares), len(IXPDomains))
	}
	var total float64
	for i, s := range shares {
		if s <= 0 {
			return nil, fmt.Errorf("deploy: share %d is %g, must be positive", i, s)
		}
		total += s
	}

	// Expand plan into individual servers, largest first for better balance.
	var units []ServerConfig
	for _, pu := range plan.Purchases {
		for i := 0; i < pu.Count; i++ {
			units = append(units, pu.Config)
		}
	}
	sort.Slice(units, func(i, j int) bool { return units[i].BandwidthMbps > units[j].BandwidthMbps })

	placements := make([]Placement, len(IXPDomains))
	for i, d := range IXPDomains {
		placements[i] = Placement{Domain: d}
	}
	// Greedy: each server goes to the domain with the largest capacity
	// deficit relative to its target share.
	for _, u := range units {
		bestIdx, bestDeficit := 0, math.Inf(-1)
		for i := range placements {
			target := plan.TotalMbps * shares[i] / total
			deficit := target - placements[i].Mbps
			if deficit > bestDeficit {
				bestDeficit, bestIdx = deficit, i
			}
		}
		placements[bestIdx].Servers = append(placements[bestIdx].Servers, u)
		placements[bestIdx].Mbps += u.BandwidthMbps
	}
	return placements, nil
}

// The Figure-26 utilization simulation's fixed workload: one month of
// minutes, Swiftest-era 1.2 s tests, and flash-crowd bursts. A minute is a
// burst with probability burstProb, and its arrival rate is then multiplied
// by a factor drawn uniformly in [3, utilBurstFactor] — the source of
// Figure 26's heavy tail (P99 45 %, max 135 %). utilOverhead scales client
// bandwidth into server egress demand: pacing overshoot during escalation,
// retransmitted control traffic, the pacing tail until Bye.
const (
	utilDays        = 30
	utilTestSeconds = 1.2
	utilBurstFactor = 30
	utilOverhead    = 1.7
)

// burstProb is the probability that a step of a synthetic workload is a
// flash-crowd burst (retest storms, app pushes).
const burstProb = 0.02

// UtilizationOptions configures the Figure-26 utilization simulation.
type UtilizationOptions struct {
	TestsPerDay float64 // e.g. 10_000
	// DrawBandwidth draws one client's access bandwidth (Mbps). Required.
	DrawBandwidth func(rng *rand.Rand) float64
	Seed          int64
}

// DefaultDiurnal is a typical daily test-arrival shape (cf. Figure 10): quiet
// at night, rising through the day, peaking in the evening.
func DefaultDiurnal() []float64 {
	return []float64{
		0.4, 0.25, 0.15, 0.1, 0.1, 0.2, 0.4, 0.7, // 0–7 h
		1.0, 1.2, 1.3, 1.4, 1.3, 1.2, 1.3, 1.4, // 8–15 h
		1.5, 1.6, 1.7, 1.9, 2.1, 2.0, 1.6, 0.9, // 16–23 h
	}
}

// SimulateUtilization replays a Poisson test workload against the servers of
// a plan (clients pick the least-loaded server, as the latency-insensitive
// design of §5.2 permits) and returns per-minute average utilization
// percentages across servers — the distribution plotted in Figure 26.
// Utilization can exceed 100 % when bursts oversubscribe a server's uplink.
func SimulateUtilization(plan Plan, opts UtilizationOptions) ([]float64, error) {
	if opts.DrawBandwidth == nil {
		return nil, errors.New("deploy: DrawBandwidth is required")
	}
	if plan.Servers() == 0 {
		return nil, errors.New("deploy: plan has no servers")
	}
	weights := DefaultDiurnal()
	var wsum float64
	for _, w := range weights {
		wsum += w
	}

	var capacities []float64
	for _, pu := range plan.Purchases {
		for i := 0; i < pu.Count; i++ {
			capacities = append(capacities, pu.Config.BandwidthMbps)
		}
	}

	rng := rand.New(rand.NewSource(opts.Seed))
	var out []float64
	// Per-minute slots: demand added by each test for its duration fraction.
	load := make([]float64, len(capacities)) // Mbps·s of demand in the current minute
	for day := 0; day < utilDays; day++ {
		for hour := 0; hour < 24; hour++ {
			hourTests := opts.TestsPerDay * weights[hour] / wsum
			for minute := 0; minute < 60; minute++ {
				for i := range load {
					load[i] = 0
				}
				// Poisson arrivals within the minute, with occasional
				// flash-crowd bursts.
				lambda := hourTests / 60
				if rng.Float64() < burstProb {
					lambda *= 3 + rng.Float64()*(utilBurstFactor-3)
				}
				n := poisson(rng, lambda)
				for t := 0; t < n; t++ {
					bw := opts.DrawBandwidth(rng) * utilOverhead
					durS := utilTestSeconds * rng.ExpFloat64()
					// Least-loaded server takes the test.
					best := 0
					for i := range load {
						if load[i]/capacities[i] < load[best]/capacities[best] {
							best = i
						}
					}
					load[best] += bw * durS
				}
				// Average utilization across servers for this minute.
				var u float64
				for i, l := range load {
					u += l / (capacities[i] * 60)
				}
				out = append(out, u/float64(len(capacities))*100)
			}
		}
	}
	return out, nil
}

// poissonPiece is the largest mean poisson draws in one piece: Knuth's
// product of uniforms is compared with exp(−lambda), which underflows the
// float64 range just above lambda = 745.
const poissonPiece = 700

// poisson draws from Poisson(lambda) by Knuth's method. A mean above
// poissonPiece is split into pieces of at most poissonPiece whose draws
// are summed, since a sum of independent Poisson variates is Poisson with
// the summed mean.
func poisson(rng *rand.Rand, lambda float64) int {
	k := 0
	for ; lambda > poissonPiece; lambda -= poissonPiece {
		k += poisson(rng, poissonPiece)
	}
	if lambda <= 0 {
		return k
	}
	l := math.Exp(-lambda)
	for p := rng.Float64(); p > l; p *= rng.Float64() {
		k++
	}
	return k
}

// SyntheticCatalogue builds a OneProvider-like catalogue: bandwidth tiers
// from 100 Mbps to 10 Gbps spanning the $10.41–$2609/month price range of
// §5.2, with limited per-tier availability. Per-Mbps pricing is sub-linear
// (bulk egress is cheaper per Mbps), which is why the geographic-coverage
// constraint — not raw price — is what pushes the Swiftest fleet toward many
// small budget servers.
func SyntheticCatalogue() []ServerConfig {
	tiers := []struct {
		mbps  float64
		price float64
		avail int
	}{
		{100, 10.41, 40},
		{200, 19, 30},
		{500, 38, 24},
		{1000, 62.4, 20},
		{2000, 118, 12},
		{5000, 260, 8},
		{10000, 2609, 2}, // premium dedicated 10 G machines
	}
	out := make([]ServerConfig, 0, len(tiers))
	for _, t := range tiers {
		out = append(out, ServerConfig{
			Name:          fmt.Sprintf("vm-%.0fmbps", t.mbps),
			BandwidthMbps: t.mbps,
			PricePerMonth: t.price,
			Available:     t.avail,
		})
	}
	return out
}

// LegacyBTSAppFleet models BTS-APP's evaluation-slice deployment for the cost
// comparison of §5.3: 50 servers of 1 Gbps each.
func LegacyBTSAppFleet(catalogue []ServerConfig) (Plan, error) {
	for _, c := range catalogue {
		if c.BandwidthMbps == 1000 {
			if c.Available < 50 {
				c.Available = 50
			}
			return Plan{
				Purchases:   []Purchase{{Config: c, Count: 50}},
				TotalMbps:   50000,
				MonthlyCost: 50 * c.PricePerMonth,
			}, nil
		}
	}
	return Plan{}, errors.New("deploy: catalogue lacks a 1 Gbps configuration")
}
