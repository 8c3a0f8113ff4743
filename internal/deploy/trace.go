package deploy

import (
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// This file regenerates §5.2's motivating observation: analysing the
// workload traces of BTS-APP's 352-server fleet shows that "in most (98 %)
// time, the required bandwidth ... does not reach even 5 % of the total
// available bandwidth" — the over-provisioning that justifies Swiftest's
// budget fleet.

// A workload trace has one point a minute, arrivals follow DefaultDiurnal,
// and a burst step multiplies the arrival rate by a factor drawn uniformly
// in [3, traceBurstFactor].
const (
	traceStep        = time.Minute
	traceBurstFactor = 12
)

// TraceOptions configures a synthetic workload trace.
type TraceOptions struct {
	// Days of trace; zero selects 7.
	Days int
	// TestsPerDay is the fleet-wide test arrival volume (BTS-APP serves
	// ≈0.2M/day); zero selects 200 000.
	TestsPerDay float64
	// TestDuration is the per-test service time (10 s for flooding tests);
	// zero selects 10 s.
	TestDuration time.Duration
	// DrawBandwidth draws one client's access bandwidth (Mbps). Required.
	DrawBandwidth func(rng *rand.Rand) float64
	// BurstProb is the probability a step is a flash-crowd burst (retest
	// storms, app pushes) with 3–12× the arrival rate; zero selects 0.02,
	// negative disables.
	BurstProb float64
	Seed      int64
}

// TracePoint is one step of a workload trace.
type TracePoint struct {
	At           time.Duration
	RequiredMbps float64 // aggregate bandwidth of tests in flight
}

// GenerateTrace synthesises the fleet-wide required-bandwidth time series.
func GenerateTrace(opts TraceOptions) ([]TracePoint, error) {
	if opts.DrawBandwidth == nil {
		return nil, errors.New("deploy: DrawBandwidth is required")
	}
	days := opts.Days
	if days <= 0 {
		days = 7
	}
	perDay := opts.TestsPerDay
	if perDay <= 0 {
		perDay = 200000
	}
	dur := opts.TestDuration
	if dur <= 0 {
		dur = 10 * time.Second
	}
	weights := DefaultDiurnal()
	var wsum float64
	for _, w := range weights {
		wsum += w
	}
	bursts := opts.BurstProb
	if bursts == 0 {
		bursts = burstProb
	}

	rng := rand.New(rand.NewSource(opts.Seed))
	stepsPerDay := int(24 * time.Hour / traceStep)
	out := make([]TracePoint, 0, days*stepsPerDay)
	for day := 0; day < days; day++ {
		for i := 0; i < stepsPerDay; i++ {
			at := time.Duration(day)*24*time.Hour + time.Duration(i)*traceStep
			hour := int(at.Hours()) % 24
			// Expected concurrent tests in this step: arrivals per second
			// times the mean test duration (Little's law), Poisson-varied.
			arrivalsPerSec := perDay * weights[hour] / wsum / 3600
			if bursts > 0 && rng.Float64() < bursts {
				arrivalsPerSec *= 3 + rng.Float64()*(traceBurstFactor-3)
			}
			concurrent := poisson(rng, arrivalsPerSec*dur.Seconds())
			var mbps float64
			for t := 0; t < concurrent; t++ {
				mbps += opts.DrawBandwidth(rng)
			}
			out = append(out, TracePoint{At: at, RequiredMbps: mbps})
		}
	}
	return out, nil
}

// TraceSummary condenses a trace against a fleet capacity.
type TraceSummary struct {
	FleetMbps float64
	// TimeBelow5Pct is the fraction of steps where the required bandwidth
	// stays under 5 % of the fleet capacity (§5.2 reports 98 %).
	TimeBelow5Pct float64
	// PeakMbps is the largest step requirement.
	PeakMbps float64
	// MeanMbps is the average requirement.
	MeanMbps float64
}

// SummarizeTrace evaluates a trace against fleetMbps of deployed capacity.
func SummarizeTrace(trace []TracePoint, fleetMbps float64) (TraceSummary, error) {
	if len(trace) == 0 {
		return TraceSummary{}, errors.New("deploy: empty trace")
	}
	if fleetMbps <= 0 {
		return TraceSummary{}, fmt.Errorf("deploy: fleet capacity %g must be positive", fleetMbps)
	}
	s := TraceSummary{FleetMbps: fleetMbps}
	below := 0
	for _, p := range trace {
		if p.RequiredMbps < 0.05*fleetMbps {
			below++
		}
		if p.RequiredMbps > s.PeakMbps {
			s.PeakMbps = p.RequiredMbps
		}
		s.MeanMbps += p.RequiredMbps
	}
	s.MeanMbps /= float64(len(trace))
	s.TimeBelow5Pct = float64(below) / float64(len(trace))
	return s, nil
}

// LegacyFleetMbps is BTS-APP's full production fleet capacity: 352 servers
// between 1 and 10 Gbps (§2); a conservative 1.5 Gbps average.
const LegacyFleetMbps = 352 * 1500
