// Package estimate computes the bandwidth estimator family and the joint
// (BW, RTT) trajectory analysis that protocol v2 reports alongside the
// paper's crossing estimate.
//
// A single headline figure hides how a test converged: MONROE-Nettest and
// the Feamster & Livingood measurement recommendations both argue a speed
// test should expose the full per-interval evolution. This package distils
// the per-sample stream into four comparable estimators —
//
//	crossing        the paper's §4 estimate (probing rate at the crossing
//	                point), computed by the engine and passed through
//	trimmed mean    symmetric 10 % trim, the Speedtest/Ookla convention
//	sustained peak  best windowed average, the "what the link can burst"
//	                view used by flooding tests
//	P90–P80         mean of the [P80, P90) quantile band, a robust
//	                near-peak statistic insensitive to ramp-up and spikes
//
// — and classifies the joint bandwidth/RTT trajectory into a BDP regime:
// slow-start ramp, queue buildup (bufferbloat), token-bucket shaping, or
// stable. The regime travels in v2 Bye frames and run-records.
//
// estimators.go holds the published rules of the systems Swiftest is compared
// against (the 3 % stability window, FastBTS's crucial interval, BTS-APP's
// trimming), so the engine and the baseline probers share them without
// importing each other.
package estimate

import (
	"math"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/stats"
)

// Estimates is the estimator family of one test. Zero-valued fields mean
// the estimator was not computable (e.g. an empty sample stream).
type Estimates struct {
	// CrossingMbps is the paper's crossing-point estimate (the engine's
	// headline result), carried through so every consumer sees the family
	// side by side.
	CrossingMbps float64 `json:"crossing_mbps"`
	// TrimmedMeanMbps is the mean of the samples after dropping the top and
	// bottom 10 %.
	TrimmedMeanMbps float64 `json:"trimmed_mean_mbps"`
	// SustainedPeakMbps is the highest mean over any sliding window of
	// peakWindow consecutive samples (the whole stream when shorter).
	SustainedPeakMbps float64 `json:"sustained_peak_mbps"`
	// P90P80Mbps is the mean of the samples falling in the [P80, P90)
	// quantile band.
	P90P80Mbps float64 `json:"p90_p80_mbps"`
}

// trimFraction is the symmetric trim of TrimmedMeanMbps: 10 % from each
// tail, the convention commercial BTS aggregation uses.
const trimFraction = 0.10

// peakWindow is the sliding-window length (in samples) of SustainedPeak.
// At the engine's 50 ms cadence this is a 500 ms sustained burst.
const peakWindow = 10

// Compute distils a per-sample throughput stream (Mbps per interval, in
// arrival order) into the estimator family. crossing is the engine's
// crossing-point estimate, passed through verbatim. Samples may be empty:
// the result then carries only the crossing figure.
func Compute(samples []float64, crossing float64) Estimates {
	// The two order-independent estimators share one sorted copy.
	sorted := sortedCopy(samples)
	return Estimates{
		CrossingMbps:      crossing,
		TrimmedMeanMbps:   trimmedMeanSorted(sorted),
		SustainedPeakMbps: SustainedPeak(samples),
		P90P80Mbps:        p90p80Sorted(sorted),
	}
}

func trimmedMeanSorted(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	cut := int(float64(n) * trimFraction)
	if 2*cut >= n {
		cut = 0
	}
	return stats.Mean(sorted[cut : n-cut])
}

// SustainedPeak is the highest mean over any window of peakWindow
// consecutive samples; streams shorter than one window use their full
// length. Order-dependent by design: it measures what the link sustained,
// not what the sorted distribution contains.
func SustainedPeak(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	w := peakWindow
	if n < w {
		w = n
	}
	var sum float64
	for _, v := range samples[:w] {
		sum += v
	}
	best := sum
	for i := w; i < n; i++ {
		sum += samples[i] - samples[i-w]
		if sum > best {
			best = sum
		}
	}
	return best / float64(w)
}

func p90p80Sorted(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	lo := int(float64(n) * 0.80)
	hi := int(float64(n) * 0.90)
	if hi <= lo {
		return sorted[n-1]
	}
	return stats.Mean(sorted[lo:hi])
}

func sortedCopy(samples []float64) []float64 {
	out := make([]float64, len(samples))
	copy(out, samples)
	// Insertion sort: sample streams are at most a few hundred entries and
	// nearly sorted streams (monotonic ramps) are the common case.
	for i := 1; i < len(out); i++ {
		v := out[i]
		j := i - 1
		for j >= 0 && out[j] > v {
			out[j+1] = out[j]
			j--
		}
		out[j+1] = v
	}
	return out
}

// TrajectoryPoint is one joint (bandwidth, RTT) observation. RTT may be
// zero when the runner has no RTT source (e.g. TCP baselines); the
// classifier then works from bandwidth alone.
type TrajectoryPoint struct {
	At   time.Duration `json:"at"`
	Mbps float64       `json:"mbps"`
	RTT  time.Duration `json:"rtt"`
}

// Regime classifies the joint (BW, RTT) trajectory of a test by how its
// bandwidth-delay product evolved.
type Regime uint8

const (
	// RegimeUnknown: too few points, or no rule matched.
	RegimeUnknown Regime = iota
	// RegimeSlowStart: bandwidth still rising at roughly constant BDP —
	// the test ended inside the ramp, so the estimate is a floor.
	RegimeSlowStart
	// RegimeQueueBuildup: bandwidth plateaued while RTT inflated — the
	// probe is filling a bottleneck buffer (bufferbloat); the crossing
	// estimate is trustworthy but latency-under-load is poor.
	RegimeQueueBuildup
	// RegimeShaping: an early burst well above the late plateau —
	// token-bucket ISP shaping; the sustained figure, not the peak, is the
	// usable bandwidth.
	RegimeShaping
	// RegimeStable: flat bandwidth and flat RTT — converged cleanly.
	RegimeStable
)

// String names the regime for traces and CLI output.
func (r Regime) String() string {
	switch r {
	case RegimeSlowStart:
		return "slow-start"
	case RegimeQueueBuildup:
		return "queue-buildup"
	case RegimeShaping:
		return "shaping"
	case RegimeStable:
		return "stable"
	default:
		return "unknown"
	}
}

// Classification thresholds. Deterministic rules, not a fitted model: the
// regimes of interest are coarse and the classifier must be reproducible
// across runs and platforms.
const (
	minPoints      = 6    // fewer points cannot separate early/late phases
	shapingRatio   = 1.5  // early peak ≥ 1.5× late mean ⇒ shaping
	rttInflation   = 1.5  // late RTT ≥ 1.5× early RTT ⇒ queue buildup
	flatTolerance  = 0.15 // late/early within ±15 % counts as flat
	riseThreshold  = 1.2  // late ≥ 1.2× early counts as still rising
	bdpStabilityCV = 0.25 // BDP coefficient of variation for "constant BDP"
)

// ClassifyBDP classifies a joint trajectory. The rules, checked in order:
//
//  1. Shaping: the peak of the first third exceeds the mean of the last
//     third by shapingRatio while the last third is internally flat — the
//     token bucket emptied mid-test. Works from bandwidth alone.
//  2. Queue buildup: late RTT inflated by rttInflation over early RTT while
//     bandwidth stayed flat — the extra probing went into a queue, not
//     into throughput. Needs RTT data.
//  3. Slow start: bandwidth still rising at the end with the BDP roughly
//     constant (CV ≤ bdpStabilityCV over points with RTT) — rate and RTT
//     move together as the window opens.
//  4. Stable: both signals flat.
//
// Anything else — or fewer than minPoints observations — is RegimeUnknown.
func ClassifyBDP(traj []TrajectoryPoint) Regime {
	if len(traj) < minPoints {
		return RegimeUnknown
	}
	third := len(traj) / 3
	early, late := traj[:third], traj[len(traj)-third:]

	earlyPeakBW := 0.0
	for _, p := range early {
		if p.Mbps > earlyPeakBW {
			earlyPeakBW = p.Mbps
		}
	}
	earlyBW := meanBW(early)
	lateBW := meanBW(late)
	earlyRTT := meanRTT(early)
	lateRTT := meanRTT(late)

	// 1. Shaping: early burst well above a flat late plateau.
	if lateBW > 0 && earlyPeakBW >= shapingRatio*lateBW && flatBW(late) {
		return RegimeShaping
	}

	bwFlat := lateBW <= earlyBW*(1+flatTolerance) && lateBW >= earlyBW*(1-flatTolerance)

	// 2. Queue buildup: RTT inflated while bandwidth plateaued.
	if earlyRTT > 0 && lateRTT >= time.Duration(float64(earlyRTT)*rttInflation) && bwFlat {
		return RegimeQueueBuildup
	}

	// 3. Slow start: bandwidth still rising under a roughly constant BDP.
	if lateBW >= earlyBW*riseThreshold && earlyBW > 0 {
		if cv, ok := bdpCV(traj); !ok || cv <= bdpStabilityCV {
			return RegimeSlowStart
		}
	}

	// 4. Stable: both flat.
	rttFlat := earlyRTT == 0 ||
		(lateRTT <= time.Duration(float64(earlyRTT)*(1+flatTolerance)) &&
			lateRTT >= time.Duration(float64(earlyRTT)*(1-flatTolerance)))
	if bwFlat && rttFlat {
		return RegimeStable
	}
	return RegimeUnknown
}

func meanBW(pts []TrajectoryPoint) float64 {
	var sum float64
	for _, p := range pts {
		sum += p.Mbps
	}
	return sum / float64(len(pts))
}

func meanRTT(pts []TrajectoryPoint) time.Duration {
	var sum time.Duration
	n := 0
	for _, p := range pts {
		if p.RTT > 0 {
			sum += p.RTT
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}

// flatBW reports whether every point sits within flatTolerance of the mean.
func flatBW(pts []TrajectoryPoint) bool {
	m := meanBW(pts)
	if m <= 0 {
		return false
	}
	for _, p := range pts {
		if p.Mbps > m*(1+flatTolerance) || p.Mbps < m*(1-flatTolerance) {
			return false
		}
	}
	return true
}

// bdpCV is the coefficient of variation of Mbps×RTT over points carrying
// RTT data; ok is false when fewer than minPoints/2 points have RTT.
func bdpCV(pts []TrajectoryPoint) (float64, bool) {
	var bdps []float64
	for _, p := range pts {
		if p.RTT > 0 && p.Mbps > 0 {
			bdps = append(bdps, p.Mbps*p.RTT.Seconds())
		}
	}
	if len(bdps) < minPoints/2 {
		return 0, false
	}
	m := stats.Mean(bdps)
	if m == 0 {
		return 0, false
	}
	var ss float64
	for _, v := range bdps {
		d := v - m
		ss += d * d
	}
	variance := ss / float64(len(bdps))
	return math.Sqrt(variance) / m, true
}
