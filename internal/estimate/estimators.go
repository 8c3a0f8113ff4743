package estimate

import (
	"sort"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/stats"
)

// BTSAppEstimate reproduces BTS-APP's result computation (§2): partition the
// collected samples into 20 groups, discard the 5 groups with the lowest
// average bandwidth and the 2 with the highest, and average the remainder.
// These empirical parameters conform to Speedtest's. With fewer than 20
// samples it falls back to a plain mean.
func BTSAppEstimate(samples []float64) float64 {
	const groups, dropLow, dropHigh = 20, 5, 2
	n := len(samples)
	if n == 0 {
		return 0
	}
	if n < groups {
		return stats.Mean(samples)
	}
	per := n / groups
	avgs := make([]float64, 0, groups)
	for g := 0; g < groups; g++ {
		lo := g * per
		hi := lo + per
		if g == groups-1 {
			hi = n // last group absorbs the remainder
		}
		avgs = append(avgs, stats.Mean(samples[lo:hi]))
	}
	sort.Float64s(avgs)
	kept := avgs[dropLow : len(avgs)-dropHigh]
	return stats.Mean(kept)
}

// BTS-APP's published parameters (§2), read by baseline.BTSApp.
const (
	// BTSAppDuration is the fixed flooding duration (Speedtest uses 15 s).
	BTSAppDuration = 10 * time.Second
	// BTSAppInitialFlows is the number of parallel connections opened at
	// test start, before any ladder rung is crossed; Speedtest-class
	// testers begin with several.
	BTSAppInitialFlows = 4
	// BTSAppMaxFlows bounds parallel connections.
	BTSAppMaxFlows = 8
)

// BTSAppScaleLadder is BTS-APP's connection scale-up ladder (§2), extended
// upward for 5G/WiFi-6-class bandwidths: one more parallel connection each
// time the measured Mbps passes the next rung.
func BTSAppScaleLadder() []float64 {
	return []float64{25, 35, 50, 75, 100, 200, 400}
}

// Window is the §5.1 convergence window: the number of trailing samples
// that must agree within StableThreshold, and whose mean a test reports
// when it stops, by convergence or at its deadline.
const Window = 10

// StableThreshold is the §5.1 convergence criterion Swiftest takes from
// FAST: the max/min difference ratio of a converged window is at most 3 %.
const StableThreshold = 0.03

// Tail is the trailing Window samples, or all of them when there are fewer.
func Tail(samples []float64) []float64 {
	if len(samples) > Window {
		return samples[len(samples)-Window:]
	}
	return samples
}

// Stable reports whether the window of samples has converged per the FAST /
// Swiftest criterion (§5.1): the difference ratio between the maximum and
// minimum values is at most threshold (e.g. 0.03 for 3 %).
func Stable(window []float64, threshold float64) bool {
	if len(window) == 0 {
		return false
	}
	lo, hi := window[0], window[0]
	for _, x := range window[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if hi <= 0 {
		return false
	}
	return (hi-lo)/hi <= threshold
}
