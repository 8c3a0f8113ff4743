// Package exper is the experiment harness for §5.3: it runs large
// back-to-back bandwidth-test campaigns over emulated access links and
// produces the distributions behind Figures 17 and 20–26 — test durations,
// data usage, deviations against BTS-APP ground truth as the paper scores
// them, three-way baseline comparisons, and server utilization.
//
// The RAN sweep (runSweep: the campaign, the training replay and the paired
// evaluation) scores against the link instead: its oracle is the mean
// capacity the run's link offered over 10 s, known exactly in emulation.
//
// Links are drawn per technology from the calibrated bandwidth models of
// package dataset, with realistic RTT, fluctuation, and occasional traffic
// shaping; every campaign is seeded and reproducible.
package exper

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/baseline"
	"github.com/mobilebandwidth/swiftest/internal/cc"
	"github.com/mobilebandwidth/swiftest/internal/core"
	"github.com/mobilebandwidth/swiftest/internal/dataset"
	"github.com/mobilebandwidth/swiftest/internal/gmm"
	"github.com/mobilebandwidth/swiftest/internal/linksim"
)

// LinkDraw is one sampled access-link scenario.
type LinkDraw struct {
	Tech         dataset.Tech
	CapacityMbps float64
	RTT          time.Duration
	Fluctuation  float64
	Shaped       bool
	Config       linksim.Config
}

// Scenario draws per-technology access links for campaigns.
type Scenario struct {
	Tech  dataset.Tech
	Model *gmm.Model // capacity distribution; nil selects the calibrated model
	// ShapedFraction is the fraction of links behind token-bucket traffic
	// shaping (the >30 % deviation tail of Figure 22). Negative selects
	// the default 1.5 %.
	ShapedFraction float64
}

// Draw samples one link scenario.
func (s Scenario) Draw(rng *rand.Rand) (LinkDraw, error) {
	model := s.Model
	if model == nil {
		m, err := dataset.TechModel(s.Tech, 2021)
		if err != nil {
			return LinkDraw{}, fmt.Errorf("exper: %v", err)
		}
		model = m
	}
	shapedFrac := s.ShapedFraction
	if shapedFrac < 0 {
		shapedFrac = 0.015
	}

	capMbps := model.Sample(rng)
	if capMbps < 2 {
		capMbps = 2
	}
	lo, hi := dataset.TechRTTRange(s.Tech)
	rtt := lo + time.Duration(rng.Float64()*float64(hi-lo))

	// Link-quality mixture: mostly calm links; some with episodic capacity
	// dips (the bursty "severe network fluctuations" of §5.3, whose dips
	// BTS-APP's samples catch while Swiftest's short window may not); a few
	// wild links with frequent deep dips — together producing Figure 22's
	// deviation tail (16 % of pairs deviate >10 %, 0.7 % >30 %).
	var fluct float64
	var dips *linksim.Dips
	switch u := rng.Float64(); {
	case u < 0.72:
		fluct = 0.002 + rng.Float64()*0.010
	case u < 0.94:
		fluct = 0.006 + rng.Float64()*0.012
		dips = &linksim.Dips{
			RatePerSec: 0.15 + rng.Float64()*0.4,
			Depth:      0.2 + rng.Float64()*0.3,
			Duration:   time.Duration(100+rng.Intn(250)) * time.Millisecond,
		}
	default:
		fluct = 0.01 + rng.Float64()*0.03
		dips = &linksim.Dips{
			RatePerSec: 0.8 + rng.Float64()*1.2,
			Depth:      0.4 + rng.Float64()*0.35,
			Duration:   time.Duration(150+rng.Intn(400)) * time.Millisecond,
		}
	}

	cfg := linksim.Config{
		CapacityMbps: capMbps,
		RTT:          rtt,
		Fluctuation:  fluct,
		Dipping:      dips,
		LossRate:     0.0002,
	}
	shaped := rng.Float64() < shapedFrac
	if shaped {
		cfg.Shaping = &linksim.Shaper{
			BurstMB:       5 + rng.Float64()*40,
			SustainedMbps: capMbps * (0.3 + rng.Float64()*0.4),
		}
	}
	return LinkDraw{
		Tech:         s.Tech,
		CapacityMbps: capMbps,
		RTT:          rtt,
		Fluctuation:  fluct,
		Shaped:       shaped,
		Config:       cfg,
	}, nil
}

// Deviation is the paper's test-pair difference metric (§5.3):
// |a − b| / max(a, b); zero when both are zero.
func Deviation(a, b float64) float64 {
	m := math.Max(a, b)
	if m <= 0 {
		return 0
	}
	return math.Abs(a-b) / m
}

// PingOverhead is the server-selection cost Swiftest adds before probing
// (§5.3: PINGing the 10 test servers costs ≈0.2 s on average).
const PingOverhead = 200 * time.Millisecond

// SwiftestMaxDuration bounds a Swiftest test in campaigns; the field
// deployment observed a 4.49 s worst case.
const SwiftestMaxDuration = 4500 * time.Millisecond

// PairResult is one back-to-back Swiftest / BTS-APP test pair (§5.3's
// evaluation unit).
type PairResult struct {
	Link     LinkDraw
	Swiftest core.Result
	BTSApp   baseline.Report
	// Deviation is the pair's result difference per the §5.3 metric.
	Deviation float64
}

// PairDriftSigma is the relative capacity drift between the two tests of a
// back-to-back pair: they run sequentially (with a cooldown), so the access
// link's available capacity differs slightly between them. This baseline
// measurement noise is what puts Figure 22's deviation median at 3 % even on
// calm links.
const PairDriftSigma = 0.035

// RunPair executes one back-to-back pair: the two tests see the same link
// scenario up to a small sequential capacity drift.
func RunPair(ctx context.Context, draw LinkDraw, model *gmm.Model, seed int64) (PairResult, error) {
	res, err := engineOn(ctx, linksim.MustNew(draw.Config, seed), model, nil)
	if err != nil {
		return PairResult{}, fmt.Errorf("exper: swiftest run: %w", err)
	}

	drifted := draw.Config
	drift := 1 + PairDriftSigma*rand.New(rand.NewSource(seed+2)).NormFloat64()
	if drift < 0.5 {
		drift = 0.5
	}
	drifted.CapacityMbps *= drift
	btsLink := linksim.MustNew(drifted, seed+1)
	rep := (&baseline.BTSApp{}).Run(btsLink)

	return PairResult{
		Link:      draw,
		Swiftest:  res,
		BTSApp:    rep,
		Deviation: Deviation(res.Bandwidth, rep.Result),
	}, nil
}

// PairCampaign runs n back-to-back pairs for one technology; a cancelled ctx
// stops it between pairs.
func PairCampaign(ctx context.Context, tech dataset.Tech, n int, seed int64) ([]PairResult, error) {
	model, err := dataset.TechModel(tech, 2021)
	if err != nil {
		return nil, fmt.Errorf("exper: %v", err)
	}
	rng := rand.New(rand.NewSource(seed))
	scenario := Scenario{Tech: tech, Model: model, ShapedFraction: -1}
	out := make([]PairResult, 0, n)
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		draw, err := scenario.Draw(rng)
		if err != nil {
			return nil, err
		}
		pair, err := RunPair(ctx, draw, model, seed+int64(i)*7919)
		if err != nil {
			return nil, err
		}
		out = append(out, pair)
	}
	return out, nil
}

// ThreeWayResult is one test group of the §5.3 benchmark: the same link
// measured by FAST, FastBTS and Swiftest, with BTS-APP as approximate ground
// truth (Figures 23–25).
type ThreeWayResult struct {
	Link     LinkDraw
	Truth    baseline.Report // BTS-APP
	FAST     baseline.Report
	FastBTS  baseline.Report
	Swiftest core.Result
}

// Accuracy reports 1 − deviation versus the BTS-APP ground truth for a
// result value.
func (r ThreeWayResult) Accuracy(result float64) float64 {
	return 1 - Deviation(result, r.Truth.Result)
}

// ThreeWayCampaign runs n test groups for one technology; a cancelled ctx
// stops it between groups.
func ThreeWayCampaign(ctx context.Context, tech dataset.Tech, n int, seed int64) ([]ThreeWayResult, error) {
	model, err := dataset.TechModel(tech, 2021)
	if err != nil {
		return nil, fmt.Errorf("exper: %v", err)
	}
	rng := rand.New(rand.NewSource(seed))
	scenario := Scenario{Tech: tech, Model: model, ShapedFraction: -1}
	out := make([]ThreeWayResult, 0, n)
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		draw, err := scenario.Draw(rng)
		if err != nil {
			return nil, err
		}
		base := seed + int64(i)*104729
		res := ThreeWayResult{Link: draw}

		truthLink := linksim.MustNew(draw.Config, base)
		res.Truth = (&baseline.BTSApp{}).Run(truthLink)

		fastLink := linksim.MustNew(draw.Config, base+1)
		res.FAST = (&baseline.FAST{}).Run(fastLink)

		fbtsLink := linksim.MustNew(draw.Config, base+2)
		res.FastBTS = (&baseline.FastBTS{}).Run(fbtsLink)

		sw, err := engineOn(ctx, linksim.MustNew(draw.Config, base+3), model, nil)
		if err != nil {
			return nil, fmt.Errorf("exper: swiftest in group %d: %w", i, err)
		}
		res.Swiftest = sw
		out = append(out, res)
	}
	return out, nil
}

// RampPoint is one (algorithm, bandwidth-bucket) cell of Figure 17.
type RampPoint struct {
	Algorithm  string
	BucketMbps float64 // bucket centre (e.g. 100 for "0–200")
	MeanRamp   time.Duration
}

// SlowStartSweep measures mean TCP ramp time per congestion-control
// algorithm across access-bandwidth buckets (Figure 17). reps averages
// several seeds per cell.
func SlowStartSweep(buckets []float64, reps int, seed int64) []RampPoint {
	if reps <= 0 {
		reps = 3
	}
	algs := []struct {
		name string
		mk   func() cc.Algorithm
	}{
		{"cubic", func() cc.Algorithm { return cc.NewCubic(0) }},
		{"reno", func() cc.Algorithm { return cc.NewReno(0) }},
		{"bbr", func() cc.Algorithm { return cc.NewBBR(0) }},
	}
	var out []RampPoint
	for _, alg := range algs {
		for _, b := range buckets {
			var total time.Duration
			for r := 0; r < reps; r++ {
				link := linksim.MustNew(linksim.Config{
					CapacityMbps: b,
					RTT:          40 * time.Millisecond,
					Fluctuation:  0.02,
				}, seed+int64(r))
				res := cc.MeasureRamp(link, alg.mk(), 0.9, 30*time.Second)
				total += res.RampTime
			}
			out = append(out, RampPoint{
				Algorithm:  alg.name,
				BucketMbps: b,
				MeanRamp:   total / time.Duration(reps),
			})
		}
	}
	return out
}

// DurationStats summarises a duration sample (Figure 20).
type DurationStats struct {
	Mean, Median, Max time.Duration
	WithinOneSecond   float64 // fraction ≤1 s including the PING overhead
	IncludesPingMean  time.Duration
}

// SwiftestDurations extracts duration statistics from a pair campaign.
func SwiftestDurations(pairs []PairResult) DurationStats {
	if len(pairs) == 0 {
		return DurationStats{}
	}
	ds := make([]time.Duration, 0, len(pairs))
	var sum time.Duration
	within := 0
	for _, p := range pairs {
		d := p.Swiftest.Duration
		ds = append(ds, d)
		sum += d
		if d+PingOverhead <= time.Second {
			within++
		}
	}
	slices.Sort(ds)
	return DurationStats{
		Mean:             sum / time.Duration(len(ds)),
		Median:           ds[len(ds)/2],
		Max:              ds[len(ds)-1],
		WithinOneSecond:  float64(within) / float64(len(ds)),
		IncludesPingMean: sum/time.Duration(len(ds)) + PingOverhead,
	}
}

// DataUsage summarises per-test data usage for a pair campaign (Figure 21).
type DataUsage struct {
	BTSAppMB   float64
	SwiftestMB float64
	Ratio      float64
}

// AverageDataUsage computes mean per-test data usage on both sides.
func AverageDataUsage(pairs []PairResult) DataUsage {
	if len(pairs) == 0 {
		return DataUsage{}
	}
	var bts, sw float64
	for _, p := range pairs {
		bts += p.BTSApp.DataMB
		sw += p.Swiftest.DataMB
	}
	bts /= float64(len(pairs))
	sw /= float64(len(pairs))
	du := DataUsage{BTSAppMB: bts, SwiftestMB: sw}
	if sw > 0 {
		du.Ratio = bts / sw
	}
	return du
}

// DeviationStats summarises the pair deviation distribution (Figure 22).
type DeviationStats struct {
	Mean, Median, Max float64
	Above10Pct        float64 // fraction of pairs deviating >10 %
	Above30Pct        float64 // fraction deviating >30 %
}

// Deviations computes Figure 22's statistics from a pair campaign.
func Deviations(pairs []PairResult) DeviationStats {
	if len(pairs) == 0 {
		return DeviationStats{}
	}
	xs := make([]float64, 0, len(pairs))
	var sum float64
	n10, n30 := 0, 0
	for _, p := range pairs {
		xs = append(xs, p.Deviation)
		sum += p.Deviation
		if p.Deviation > 0.10 {
			n10++
		}
		if p.Deviation > 0.30 {
			n30++
		}
	}
	slices.Sort(xs)
	return DeviationStats{
		Mean:       sum / float64(len(xs)),
		Median:     xs[len(xs)/2],
		Max:        xs[len(xs)-1],
		Above10Pct: float64(n10) / float64(len(xs)),
		Above30Pct: float64(n30) / float64(len(xs)),
	}
}

// BTSComparison aggregates a three-way campaign into Figure 23–25 rows.
type BTSComparison struct {
	MeanTime     map[string]time.Duration
	MeanDataMB   map[string]float64
	MeanAccuracy map[string]float64
}

// CompareBTSes summarises a three-way campaign.
func CompareBTSes(groups []ThreeWayResult) BTSComparison {
	cmp := BTSComparison{
		MeanTime:     map[string]time.Duration{},
		MeanDataMB:   map[string]float64{},
		MeanAccuracy: map[string]float64{},
	}
	if len(groups) == 0 {
		return cmp
	}
	n := time.Duration(len(groups))
	fn := float64(len(groups))
	for _, g := range groups {
		cmp.MeanTime["fast"] += g.FAST.Duration
		cmp.MeanTime["fastbts"] += g.FastBTS.Duration
		cmp.MeanTime["swiftest"] += g.Swiftest.Duration
		cmp.MeanDataMB["fast"] += g.FAST.DataMB
		cmp.MeanDataMB["fastbts"] += g.FastBTS.DataMB
		cmp.MeanDataMB["swiftest"] += g.Swiftest.DataMB
		cmp.MeanAccuracy["fast"] += g.Accuracy(g.FAST.Result)
		cmp.MeanAccuracy["fastbts"] += g.Accuracy(g.FastBTS.Result)
		cmp.MeanAccuracy["swiftest"] += g.Accuracy(g.Swiftest.Bandwidth)
	}
	for k := range cmp.MeanTime {
		cmp.MeanTime[k] /= n
	}
	for k := range cmp.MeanDataMB {
		cmp.MeanDataMB[k] /= fn
	}
	for k := range cmp.MeanAccuracy {
		cmp.MeanAccuracy[k] /= fn
	}
	return cmp
}
