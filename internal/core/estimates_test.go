package core

import (
	"context"
	"testing"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/estimate"
	"github.com/mobilebandwidth/swiftest/internal/linksim"
)

// TestResultCarriesEstimatorFamily: every engine run reports the full
// estimator family, the crossing slot echoes the headline bandwidth, and
// the trajectory carries per-sample RTT from the emulated link.
func TestResultCarriesEstimatorFamily(t *testing.T) {
	l := quietLink(400, 11)
	p := NewSimProbe(l)
	defer p.Close()
	res, err := RunContext(context.Background(), p, Config{Model: model5G()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimates.CrossingMbps != res.Bandwidth {
		t.Errorf("CrossingMbps = %g, want headline %g", res.Estimates.CrossingMbps, res.Bandwidth)
	}
	if res.Estimates.TrimmedMeanMbps <= 0 || res.Estimates.SustainedPeakMbps <= 0 || res.Estimates.P90P80Mbps <= 0 {
		t.Errorf("estimator family not populated: %+v", res.Estimates)
	}
	if len(res.Trajectory) != len(res.Samples) {
		t.Fatalf("trajectory has %d points, want %d", len(res.Trajectory), len(res.Samples))
	}
	for i, pt := range res.Trajectory {
		if pt.Mbps != res.Samples[i] {
			t.Fatalf("trajectory point %d bandwidth %g != sample %g", i, pt.Mbps, res.Samples[i])
		}
		if pt.RTT <= 0 {
			t.Fatalf("trajectory point %d has no RTT; SimProbe implements RTTSampler", i)
		}
	}
}

// TestRegimeOnQuietLink: a converging test over a quiet unshaped link must
// not read as shaping or slow-start. Queue buildup is a legitimate outcome:
// Swiftest's escalation deliberately probes above capacity, so the
// bottleneck queue (and with it RTT) grows until convergence stops the test.
func TestRegimeOnQuietLink(t *testing.T) {
	l := quietLink(400, 11)
	p := NewSimProbe(l)
	defer p.Close()
	res, err := RunContext(context.Background(), p, Config{Model: model5G()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Skip("test did not converge; regime assertion assumes a settled tail")
	}
	if res.Regime == estimate.RegimeShaping || res.Regime == estimate.RegimeSlowStart {
		t.Errorf("quiet link classified as %v", res.Regime)
	}
}

func shapedLink(seed int64) *linksim.Link {
	// A 500 Mbps link that clamps to 80 Mbps after a 5 MB token bucket —
	// the §6 ISP-shaping scenario.
	return linksim.MustNew(linksim.Config{
		CapacityMbps: 500,
		RTT:          30 * time.Millisecond,
		Fluctuation:  0.01,
		Shaping:      &linksim.Shaper{BurstMB: 5, SustainedMbps: 80},
	}, seed)
}

// TestRegimeShapingDetected: a token-bucket link whose bucket empties
// mid-test must classify as shaping.
func TestRegimeShapingDetected(t *testing.T) {
	p := NewSimProbe(shapedLink(7))
	defer p.Close()
	res, err := RunContext(context.Background(), p, Config{Model: model5G(), MaxDuration: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.Regime != estimate.RegimeShaping {
		t.Errorf("shaped link classified as %v, want shaping (samples: %v)", res.Regime, res.Samples)
	}
}

// TestRegimeHintOffIsByteStable: two runs of the same seed on a shaped link,
// where the regime classifier has the most to say, match exactly — the
// determinism contract seeded campaign digests rely on.
func TestRegimeHintOffIsByteStable(t *testing.T) {
	run := func() Result {
		p := NewSimProbe(shapedLink(13))
		defer p.Close()
		res, err := RunContext(context.Background(), p, Config{Model: model5G(), MaxDuration: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Bandwidth != b.Bandwidth || a.RateChanges != b.RateChanges || a.Duration != b.Duration {
		t.Errorf("same-seed runs diverge: %+v vs %+v", a, b)
	}
	if a.Regime != b.Regime || a.Estimates != b.Estimates {
		t.Errorf("estimator outputs diverge: %v/%v vs %v/%v", a.Regime, a.Estimates, b.Regime, b.Estimates)
	}
}
