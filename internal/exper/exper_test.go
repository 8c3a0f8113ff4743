package exper

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/dataset"
)

func TestDeviationMetric(t *testing.T) {
	if Deviation(0, 0) != 0 {
		t.Error("Deviation(0,0) != 0")
	}
	if got := Deviation(100, 80); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("Deviation(100,80) = %g, want 0.2", got)
	}
	if Deviation(80, 100) != Deviation(100, 80) {
		t.Error("deviation not symmetric")
	}
}

func TestScenarioDraw(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := Scenario{Tech: dataset.Tech5G, ShapedFraction: -1}
	shaped := 0
	for i := 0; i < 500; i++ {
		d, err := s.Draw(rng)
		if err != nil {
			t.Fatal(err)
		}
		if d.CapacityMbps < 2 {
			t.Fatalf("capacity %g too small", d.CapacityMbps)
		}
		if d.RTT < 18*time.Millisecond || d.RTT > 40*time.Millisecond {
			t.Fatalf("5G RTT %v out of range", d.RTT)
		}
		if d.Shaped {
			shaped++
		}
	}
	if shaped == 0 || shaped > 30 {
		t.Errorf("shaped links = %d/500, want ≈1.5%%", shaped)
	}
}

func TestScenarioDrawUnknownTech(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := (Scenario{Tech: dataset.Tech3G}).Draw(rng); err == nil {
		t.Error("3G scenario should fail (no calibrated model)")
	}
}

// TestFig20And21And22 runs a small pair campaign and checks the §5.3
// headline shapes: ≈1 s Swiftest tests vs 10 s BTS-APP, ≈8–9× data-usage
// reduction, and small average deviation with a heavy tail.
func TestFig20And21And22(t *testing.T) {
	pairs, err := PairCampaign(context.Background(), dataset.Tech5G, 120, 99)
	if err != nil {
		t.Fatal(err)
	}

	dur := SwiftestDurations(pairs)
	if dur.Mean > 1800*time.Millisecond {
		t.Errorf("Swiftest mean duration = %v, want ≈1 s", dur.Mean)
	}
	if dur.Median > 1200*time.Millisecond {
		t.Errorf("median duration = %v, want ≈0.76 s", dur.Median)
	}
	if dur.Max > SwiftestMaxDuration {
		t.Errorf("max duration = %v beyond the deadline", dur.Max)
	}
	if dur.WithinOneSecond < 0.3 {
		t.Errorf("only %.0f%% of tests within 1 s incl. ping, want ≈55%%", dur.WithinOneSecond*100)
	}

	du := AverageDataUsage(pairs)
	if du.Ratio < 4 || du.Ratio > 20 {
		t.Errorf("data-usage ratio = %.1f×, want ≈8–9× (BTS-APP %.0f MB vs Swiftest %.0f MB)",
			du.Ratio, du.BTSAppMB, du.SwiftestMB)
	}

	dev := Deviations(pairs)
	if dev.Mean > 0.12 {
		t.Errorf("mean deviation = %.3f, want ≈0.05", dev.Mean)
	}
	if dev.Median > 0.08 {
		t.Errorf("median deviation = %.3f, want ≈0.03", dev.Median)
	}
	if dev.Above10Pct > 0.35 {
		t.Errorf("deviations >10%% = %.2f, want ≈0.16", dev.Above10Pct)
	}
	// The 10-second BTS-APP floods on every pair.
	for _, p := range pairs[:5] {
		if p.BTSApp.Duration != 10*time.Second {
			t.Fatalf("BTS-APP duration = %v", p.BTSApp.Duration)
		}
	}
}

// TestFig23to25 runs a small three-way campaign and checks the §5.3
// ordering: Swiftest fastest and most accurate, FAST slowest and heaviest,
// FastBTS least accurate.
func TestFig23to25(t *testing.T) {
	groups, err := ThreeWayCampaign(context.Background(), dataset.Tech5G, 60, 7)
	if err != nil {
		t.Fatal(err)
	}
	cmp := CompareBTSes(groups)

	if !(cmp.MeanTime["swiftest"] < cmp.MeanTime["fastbts"] &&
		cmp.MeanTime["fastbts"] < cmp.MeanTime["fast"]) {
		t.Errorf("time ordering wrong: %v", cmp.MeanTime)
	}
	if ratio := float64(cmp.MeanTime["fast"]) / float64(cmp.MeanTime["swiftest"]); ratio < 2.9 {
		t.Errorf("FAST/Swiftest time ratio = %.1f, want ≥2.9 (paper: 2.9–16.5×)", ratio)
	}
	if !(cmp.MeanDataMB["swiftest"] < cmp.MeanDataMB["fast"]) {
		t.Errorf("data ordering wrong: %v", cmp.MeanDataMB)
	}
	if !(cmp.MeanAccuracy["swiftest"] > cmp.MeanAccuracy["fastbts"]) {
		t.Errorf("Swiftest accuracy (%v) not above FastBTS (%v)",
			cmp.MeanAccuracy["swiftest"], cmp.MeanAccuracy["fastbts"])
	}
	if cmp.MeanAccuracy["swiftest"] < 0.85 {
		t.Errorf("Swiftest accuracy = %.2f, want ≈0.95", cmp.MeanAccuracy["swiftest"])
	}
	if cmp.MeanAccuracy["fastbts"] > 0.93 {
		t.Errorf("FastBTS accuracy = %.2f, expected clearly below Swiftest (paper: 0.79)",
			cmp.MeanAccuracy["fastbts"])
	}
}

// TestFig17Sweep checks the slow-start sweep's orderings.
func TestFig17Sweep(t *testing.T) {
	points := SlowStartSweep([]float64{100, 500, 900}, 2, 3)
	byAlg := map[string][]RampPoint{}
	for _, p := range points {
		byAlg[p.Algorithm] = append(byAlg[p.Algorithm], p)
	}
	for alg, ps := range byAlg {
		for i := 1; i < len(ps); i++ {
			if ps[i].MeanRamp <= ps[i-1].MeanRamp {
				t.Errorf("%s ramp not increasing with bandwidth", alg)
			}
		}
	}
	for i := range byAlg["cubic"] {
		if !(byAlg["cubic"][i].MeanRamp > byAlg["reno"][i].MeanRamp &&
			byAlg["reno"][i].MeanRamp > byAlg["bbr"][i].MeanRamp) {
			t.Errorf("bucket %v: ordering cubic>reno>bbr violated", byAlg["cubic"][i].BucketMbps)
		}
	}
}

func TestEmptyAggregations(t *testing.T) {
	if d := SwiftestDurations(nil); d.Mean != 0 {
		t.Error("empty durations not zero")
	}
	if du := AverageDataUsage(nil); du.Ratio != 0 {
		t.Error("empty data usage not zero")
	}
	if dev := Deviations(nil); dev.Mean != 0 {
		t.Error("empty deviations not zero")
	}
	cmp := CompareBTSes(nil)
	if len(cmp.MeanTime) != 0 {
		t.Error("empty comparison not empty")
	}
}

func TestCampaignDeterminism(t *testing.T) {
	a, err := PairCampaign(context.Background(), dataset.Tech4G, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PairCampaign(context.Background(), dataset.Tech4G, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Swiftest.Bandwidth != b[i].Swiftest.Bandwidth || a[i].BTSApp.Result != b[i].BTSApp.Result {
			t.Fatalf("pair %d differs across identical campaign seeds", i)
		}
	}
}

func TestCampaignsStopOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := PairCampaign(ctx, dataset.Tech4G, 10, 5); !errors.Is(err, context.Canceled) {
		t.Errorf("PairCampaign on a cancelled context: %v, want context.Canceled", err)
	}
	if _, err := ThreeWayCampaign(ctx, dataset.Tech4G, 10, 5); !errors.Is(err, context.Canceled) {
		t.Errorf("ThreeWayCampaign on a cancelled context: %v, want context.Canceled", err)
	}
}
