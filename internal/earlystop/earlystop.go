// Package earlystop implements learned early termination for bandwidth
// tests, in the spirit of TURBOTEST (PAPERS.md): a small model watches the
// first K 50 ms samples of a test and decides mid-flight that "less is
// enough" — the trailing-window mean is already within tolerance of the
// link's capacity — cutting duration and bytes-on-wire beyond any fixed
// crossing rule.
//
// The package has three parts behind the core.TerminationPolicy seam:
//
//   - a featurizer (Featurize) turning a sample/trajectory prefix into a
//     fixed-size feature vector: throughput slope, variance, plateau ratio,
//     RTT trend, CC-phase hints from internal/cc, and BDP regime hints from
//     internal/estimate.ClassifyBDP;
//   - a trainable logistic-regression model (Model, Train) — stdlib-only,
//     seeded and deterministic: the same training set produces
//     byte-identical weights and a byte-identical JSON artifact
//     (swiftest-earlystop-model/v1);
//   - Policy, the core.TerminationPolicy implementation combining the model
//     with the §5.1 crossing rule as a graceful fallback.
//
// Where the labeled rows come from is not this package's business: the
// replay that labels seeded scenario runs against the capacity their links
// offered (Replay, TrainFromReplay) and the paired evaluation (Evaluate) live in
// internal/exper, beside the campaign, on the one scenario runner.
//
// Everything here is a pure function of its inputs — no wall clock, no
// global randomness — so reruns are byte-identical and the swiftvet
// determinism gates (seedflow, maporder, vtcore, ctxflow) enforce the
// package like the rest of the virtual-time core.
package earlystop

import (
	"math"

	"github.com/mobilebandwidth/swiftest/internal/cc"
	"github.com/mobilebandwidth/swiftest/internal/estimate"
	"github.com/mobilebandwidth/swiftest/internal/stats"
)

// NFeatures is the fixed feature-vector width. Feature vectors are arrays,
// not slices, so Featurize and Model.Predict run without allocating.
const NFeatures = 12

// FeatureNames labels each feature index, in vector order. The names are
// embedded in the model artifact so a trained model is self-describing.
var FeatureNames = [NFeatures]string{
	"sample_count",        // samples collected so far, scaled by 1/100
	"tail_spread",         // max/min difference ratio of the trailing window
	"slope_norm",          // OLS slope of all samples, normalised by their mean
	"tail_cv",             // coefficient of variation of the trailing window
	"plateau_ratio",       // mean of the last third over the peak sample
	"total_cv",            // coefficient of variation of all samples
	"rtt_inflation",       // mean RTT last third / first third (0 without RTT)
	"ramp_fraction",       // cc.RampFraction: slow-start-like growth share
	"regime_slowstart",    // ClassifyBDP one-hot
	"regime_queuebuildup", // ClassifyBDP one-hot
	"regime_shaping",      // ClassifyBDP one-hot
	"regime_stable",       // ClassifyBDP one-hot
}

// Featurize fills out with the feature vector of the sample/trajectory
// prefix. samples and traj are the complete prefixes in arrival order (traj
// may be shorter or empty when the probe reports no RTT). It is a pure
// function of its inputs and performs no allocation.
//
// swiftvet:hotpath
func Featurize(samples []float64, traj []estimate.TrajectoryPoint, out *[NFeatures]float64) {
	*out = [NFeatures]float64{}
	n := len(samples)
	if n == 0 {
		return
	}
	out[0] = float64(n) / 100

	// The tail_* features read the §5.1 window an early stop reports.
	tail := estimate.Tail(samples)
	out[1] = stats.Spread(tail)
	out[2] = slopeNorm(samples)
	out[3] = cvOf(tail)

	third := n / 3
	if third < 1 {
		third = 1
	}
	peak := samples[0]
	for _, s := range samples[1:] {
		if s > peak {
			peak = s
		}
	}
	if peak > 0 {
		out[4] = stats.Mean(samples[n-third:]) / peak
	}
	out[5] = cvOf(samples)
	out[6] = rttInflation(traj)
	out[7] = cc.RampFraction(samples)

	switch estimate.ClassifyBDP(traj) {
	case estimate.RegimeSlowStart:
		out[8] = 1
	case estimate.RegimeQueueBuildup:
		out[9] = 1
	case estimate.RegimeShaping:
		out[10] = 1
	case estimate.RegimeStable:
		out[11] = 1
	}
}

// cvOf is the coefficient of variation (population std / mean), 0 for
// degenerate windows.
func cvOf(xs []float64) float64 {
	m := stats.Mean(xs)
	if m == 0 || len(xs) < 2 {
		return 0
	}
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss/float64(len(xs))) / m
}

// slopeNorm is the ordinary-least-squares slope of the samples against
// their index, normalised by the sample mean — the per-sample relative
// growth rate.
func slopeNorm(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := stats.Mean(xs)
	if m == 0 {
		return 0
	}
	// Index mean is (n-1)/2; accumulate the centered cross terms.
	im := float64(n-1) / 2
	var num, den float64
	for i, x := range xs {
		di := float64(i) - im
		num += di * (x - m)
		den += di * di
	}
	if den == 0 {
		return 0
	}
	return (num / den) / m
}

// rttInflation compares the mean RTT of the trajectory's last third against
// its first third. >1 means delay is growing (queue buildup); 0 means no
// usable RTT observations.
func rttInflation(traj []estimate.TrajectoryPoint) float64 {
	n := len(traj)
	if n < 2 {
		return 0
	}
	third := n / 3
	if third < 1 {
		third = 1
	}
	early := meanRTTOf(traj[:third])
	late := meanRTTOf(traj[n-third:])
	if early <= 0 || late <= 0 {
		return 0
	}
	return late / early
}

func meanRTTOf(pts []estimate.TrajectoryPoint) float64 {
	var s float64
	n := 0
	for _, p := range pts {
		if p.RTT > 0 {
			s += p.RTT.Seconds()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}
