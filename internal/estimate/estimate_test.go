package estimate

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/stats"
)

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) < 1e-9*(1+math.Abs(a)+math.Abs(b))
}

func TestComputeEmptyStream(t *testing.T) {
	est := Compute(nil, 42.5)
	if est.CrossingMbps != 42.5 {
		t.Errorf("CrossingMbps = %v, want pass-through 42.5", est.CrossingMbps)
	}
	if est.TrimmedMeanMbps != 0 || est.SustainedPeakMbps != 0 || est.P90P80Mbps != 0 {
		t.Errorf("empty stream must zero the sample estimators: %+v", est)
	}
}

func TestComputeSingleInterval(t *testing.T) {
	est := Compute([]float64{17}, 17)
	if !almostEqual(est.TrimmedMeanMbps, 17) {
		t.Errorf("TrimmedMean = %v, want 17", est.TrimmedMeanMbps)
	}
	if !almostEqual(est.SustainedPeakMbps, 17) {
		t.Errorf("SustainedPeak = %v, want 17", est.SustainedPeakMbps)
	}
	if !almostEqual(est.P90P80Mbps, 17) {
		t.Errorf("P90P80 = %v, want 17", est.P90P80Mbps)
	}
}

func TestComputeAllIdentical(t *testing.T) {
	samples := make([]float64, 40)
	for i := range samples {
		samples[i] = 9.25
	}
	est := Compute(samples, 9.25)
	for name, got := range map[string]float64{
		"TrimmedMean":   est.TrimmedMeanMbps,
		"SustainedPeak": est.SustainedPeakMbps,
		"P90P80":        est.P90P80Mbps,
	} {
		if !almostEqual(got, 9.25) {
			t.Errorf("%s = %v, want 9.25 on identical samples", name, got)
		}
	}
}

func TestTrimmedMeanDropsOutliers(t *testing.T) {
	// 18 samples at 10, one at 1000, one at 0: a 10 % trim removes exactly
	// the two extremes.
	samples := []float64{1000, 0}
	for i := 0; i < 18; i++ {
		samples = append(samples, 10)
	}
	if got := Compute(samples, 0).TrimmedMeanMbps; !almostEqual(got, 10) {
		t.Errorf("TrimmedMean = %v, want 10", got)
	}
}

func TestSustainedPeakFindsBurst(t *testing.T) {
	// 30 samples at 5 with a 10-sample burst at 50 in the middle: the peak
	// window must land exactly on the burst.
	samples := make([]float64, 30)
	for i := range samples {
		samples[i] = 5
	}
	for i := 10; i < 20; i++ {
		samples[i] = 50
	}
	if got := SustainedPeak(samples); !almostEqual(got, 50) {
		t.Errorf("SustainedPeak = %v, want 50", got)
	}
}

func TestSustainedPeakOrderDependent(t *testing.T) {
	// The same multiset in burst order vs interleaved order must differ —
	// sustained peak measures contiguous delivery by design.
	burst := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9}
	interleaved := []float64{1, 9, 1, 9, 1, 9, 1, 9, 1, 9, 1, 9, 1, 9, 1, 9, 1, 9, 1, 9}
	if SustainedPeak(burst) <= SustainedPeak(interleaved) {
		t.Errorf("burst peak %v not above interleaved peak %v",
			SustainedPeak(burst), SustainedPeak(interleaved))
	}
}

func TestP90P80Band(t *testing.T) {
	// 0..99: P80..P90 band is samples 80..89, mean 84.5.
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(i)
	}
	if got := Compute(samples, 0).P90P80Mbps; !almostEqual(got, 84.5) {
		t.Errorf("P90P80 = %v, want 84.5", got)
	}
}

// shuffled returns a deterministic permutation of samples.
func shuffled(samples []float64, seed int64) []float64 {
	out := make([]float64, len(samples))
	copy(out, samples)
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func TestOrderIndependenceProperty(t *testing.T) {
	// TrimmedMean and P90P80 are defined on the sample distribution, so any
	// permutation of the stream must give the identical estimate.
	f := func(raw []float64, seed int64) bool {
		samples := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			// Throughput samples are non-negative and bounded.
			samples = append(samples, math.Mod(math.Abs(v), 1e6))
		}
		perm := shuffled(samples, seed)
		return almostEqual(Compute(samples, 0).TrimmedMeanMbps, Compute(perm, 0).TrimmedMeanMbps) &&
			almostEqual(Compute(samples, 0).P90P80Mbps, Compute(perm, 0).P90P80Mbps)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEstimatorBoundsProperty(t *testing.T) {
	// Every estimator lies within [min, max] of the stream.
	f := func(raw []float64) bool {
		var samples []float64
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			samples = append(samples, math.Mod(math.Abs(v), 1e6))
		}
		if len(samples) == 0 {
			return true
		}
		lo, hi := samples[0], samples[0]
		for _, v := range samples {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		eps := 1e-9 * (1 + hi)
		for _, got := range []float64{Compute(samples, 0).TrimmedMeanMbps, SustainedPeak(samples), Compute(samples, 0).P90P80Mbps} {
			if got < lo-eps || got > hi+eps {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func traj(bw []float64, rtt []time.Duration) []TrajectoryPoint {
	pts := make([]TrajectoryPoint, len(bw))
	for i := range bw {
		pts[i] = TrajectoryPoint{At: time.Duration(i) * 50 * time.Millisecond, Mbps: bw[i]}
		if rtt != nil {
			pts[i].RTT = rtt[i]
		}
	}
	return pts
}

func TestClassifyBDPTooFewPoints(t *testing.T) {
	if got := ClassifyBDP(traj([]float64{1, 2, 3}, nil)); got != RegimeUnknown {
		t.Errorf("3 points classified as %v, want unknown", got)
	}
	if got := ClassifyBDP(nil); got != RegimeUnknown {
		t.Errorf("empty trajectory classified as %v, want unknown", got)
	}
}

func TestClassifyBDPStable(t *testing.T) {
	bw := make([]float64, 12)
	rtt := make([]time.Duration, 12)
	for i := range bw {
		bw[i] = 40
		rtt[i] = 40 * time.Millisecond
	}
	if got := ClassifyBDP(traj(bw, rtt)); got != RegimeStable {
		t.Errorf("flat trajectory classified as %v, want stable", got)
	}
}

func TestClassifyBDPSlowStart(t *testing.T) {
	// Bandwidth doubling every few samples while RTT shrinks inversely:
	// BDP constant, bandwidth rising — the canonical opening window.
	var bw []float64
	var rtt []time.Duration
	for i := 0; i < 12; i++ {
		b := 5 * math.Pow(1.3, float64(i))
		bw = append(bw, b)
		rtt = append(rtt, time.Duration(2e9/b)) // Mbps × RTT constant
	}
	if got := ClassifyBDP(traj(bw, rtt)); got != RegimeSlowStart {
		t.Errorf("ramp trajectory classified as %v, want slow-start", got)
	}
}

func TestClassifyBDPQueueBuildup(t *testing.T) {
	// Flat bandwidth, RTT tripling: the probe fills a buffer.
	bw := make([]float64, 12)
	rtt := make([]time.Duration, 12)
	for i := range bw {
		bw[i] = 40
		rtt[i] = time.Duration(40+10*i) * time.Millisecond
	}
	if got := ClassifyBDP(traj(bw, rtt)); got != RegimeQueueBuildup {
		t.Errorf("bloat trajectory classified as %v, want queue-buildup", got)
	}
}

func TestClassifyBDPShaping(t *testing.T) {
	// A 100 Mbps burst collapsing to a flat 20 Mbps plateau: token-bucket
	// shaping. Works without RTT data (TCP baselines).
	bw := []float64{100, 100, 100, 100, 20, 20, 20, 20, 20, 20, 20, 20}
	if got := ClassifyBDP(traj(bw, nil)); got != RegimeShaping {
		t.Errorf("shaped trajectory classified as %v, want shaping", got)
	}
}

func TestClassifyBDPMinimumTrajectory(t *testing.T) {
	// minPoints is the gate: 5 points are unclassifiable, 6 already split
	// into thirds of two and classify.
	bw5 := []float64{40, 40, 40, 40, 40}
	if got := ClassifyBDP(traj(bw5, nil)); got != RegimeUnknown {
		t.Errorf("5 points classified as %v, want unknown", got)
	}
	bw6 := []float64{40, 40, 40, 40, 40, 40}
	if got := ClassifyBDP(traj(bw6, nil)); got != RegimeStable {
		t.Errorf("6 flat points classified as %v, want stable", got)
	}
}

func TestClassifyBDPShapingBorderline(t *testing.T) {
	// Early peak exactly shapingRatio × the flat late mean: shaped (the
	// rule is inclusive).
	at := []float64{75, 60, 60, 60, 50, 50, 50, 50, 50, 50, 50, 50}
	if got := ClassifyBDP(traj(at, nil)); got != RegimeShaping {
		t.Errorf("peak exactly 1.5x plateau classified as %v, want shaping", got)
	}
	// Just under the ratio: a decaying stream that is neither shaped nor
	// flat nor rising — unknown.
	under := []float64{74, 60, 60, 60, 50, 50, 50, 50, 50, 50, 50, 50}
	if got := ClassifyBDP(traj(under, nil)); got != RegimeUnknown {
		t.Errorf("peak 1.48x plateau classified as %v, want unknown", got)
	}
}

func TestClassifyBDPRTTBorderline(t *testing.T) {
	bw := make([]float64, 12)
	for i := range bw {
		bw[i] = 40
	}
	// RTT inflated 1.4×: too inflated to count as stable (flat is ±15 %),
	// not inflated enough for queue buildup (1.5×) — unknown.
	between := make([]time.Duration, 12)
	for i := range between {
		between[i] = 40 * time.Millisecond
		if i >= 8 {
			between[i] = 56 * time.Millisecond
		}
	}
	if got := ClassifyBDP(traj(bw, between)); got != RegimeUnknown {
		t.Errorf("1.4x RTT inflation classified as %v, want unknown", got)
	}
	// Exactly 1.5×: queue buildup (inclusive).
	exact := make([]time.Duration, 12)
	for i := range exact {
		exact[i] = 40 * time.Millisecond
		if i >= 8 {
			exact[i] = 60 * time.Millisecond
		}
	}
	if got := ClassifyBDP(traj(bw, exact)); got != RegimeQueueBuildup {
		t.Errorf("exactly 1.5x RTT inflation classified as %v, want queue-buildup", got)
	}
}

func TestClassifyBDPRisingUnstableBDP(t *testing.T) {
	// Bandwidth doubling while RTT stays put: the rate×RTT product swings
	// far past the stability CV, so this is not a clean opening window —
	// and it is not flat either. Unknown.
	var bw []float64
	rtt := make([]time.Duration, 12)
	for i := 0; i < 12; i++ {
		bw = append(bw, 5*math.Pow(1.5, float64(i)))
		rtt[i] = 40 * time.Millisecond
	}
	if got := ClassifyBDP(traj(bw, rtt)); got != RegimeUnknown {
		t.Errorf("rising bandwidth with swinging BDP classified as %v, want unknown", got)
	}
}

func TestClassifyBDPRisingWithoutRTT(t *testing.T) {
	// A TCP baseline ramp: no RTT observations at all, bandwidth still
	// rising. The BDP check cannot veto, so this is slow start.
	var bw []float64
	for i := 0; i < 12; i++ {
		bw = append(bw, 5*math.Pow(1.3, float64(i)))
	}
	if got := ClassifyBDP(traj(bw, nil)); got != RegimeSlowStart {
		t.Errorf("RTT-less ramp classified as %v, want slow-start", got)
	}
}

func TestRegimeStringRoundTrip(t *testing.T) {
	// Traces and run-records carry the name; each must name one regime.
	seen := map[string]Regime{}
	for _, r := range []Regime{RegimeUnknown, RegimeSlowStart, RegimeQueueBuildup, RegimeShaping, RegimeStable} {
		if prev, dup := seen[r.String()]; dup {
			t.Errorf("%d and %d both print %q", prev, r, r.String())
		}
		seen[r.String()] = r
	}
	if got := Regime(200).String(); got != "unknown" {
		t.Errorf("Regime(200) = %q, want unknown", got)
	}
}

// computeRef is Compute as it stood when TrimmedMean and P90P80 each sorted
// their own copy of the stream.
func computeRef(samples []float64, crossing float64) Estimates {
	trimmed := func() float64 {
		n := len(samples)
		if n == 0 {
			return 0
		}
		sorted := append([]float64(nil), samples...)
		sort.Float64s(sorted)
		cut := int(float64(n) * trimFraction)
		if 2*cut >= n {
			cut = 0
		}
		return stats.Mean(sorted[cut : n-cut])
	}
	band := func() float64 {
		n := len(samples)
		if n == 0 {
			return 0
		}
		sorted := append([]float64(nil), samples...)
		sort.Float64s(sorted)
		lo := int(float64(n) * 0.80)
		hi := int(float64(n) * 0.90)
		if hi <= lo {
			return sorted[n-1]
		}
		return stats.Mean(sorted[lo:hi])
	}
	return Estimates{
		CrossingMbps:      crossing,
		TrimmedMeanMbps:   trimmed(),
		SustainedPeakMbps: SustainedPeak(samples),
		P90P80Mbps:        band(),
	}
}

// TestComputeMatchesTwoSortReference: sharing one sorted copy between the
// two order-independent estimators must not move a bit, on distinct values,
// on heavy ties, and at every length around the trim and band boundaries.
func TestComputeMatchesTwoSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	levels := []float64{0, 12.5, 12.5 + 1e-9, 80, 300.25}
	for n := 0; n <= 130; n++ {
		random := make([]float64, n)
		tied := make([]float64, n)
		for i := range random {
			random[i] = rng.Float64() * 900
			tied[i] = levels[rng.Intn(len(levels))]
		}
		for name, samples := range map[string][]float64{"random": random, "tied": tied} {
			before := append([]float64(nil), samples...)
			got, want := Compute(samples, 77), computeRef(samples, 77)
			if got != want {
				t.Fatalf("%s n=%d: Compute = %+v, reference %+v", name, n, got, want)
			}
			for i := range samples {
				if samples[i] != before[i] {
					t.Fatalf("%s n=%d: Compute reordered its input", name, n)
				}
			}
		}
	}
}
