package baseline

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/estimate"
	"github.com/mobilebandwidth/swiftest/internal/linksim"
	"github.com/mobilebandwidth/swiftest/internal/stats"
)

// crucialIntervalRef is estimate.CrucialInterval as it stood before
// CrucialSorted was split out: copy, sort, and two divisions per candidate
// interval.
func crucialIntervalRef(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return samples[0]
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	eps := (sorted[n-1] - sorted[0]) / float64(n*10)
	if eps <= 0 {
		return sorted[0]
	}
	bestScore := math.Inf(-1)
	bestLo, bestHi := 0, n-1
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			k := float64(j - i + 1)
			width := sorted[j] - sorted[i] + eps
			density := k / width
			quantity := k / float64(n)
			score := density * quantity
			if score > bestScore {
				bestScore, bestLo, bestHi = score, i, j
			}
		}
	}
	return stats.Mean(sorted[bestLo : bestHi+1])
}

// crucialStreams are seeded 250-sample streams of the three shapes that
// stress the interval search: all-distinct values, a handful of values
// repeated many times (score ties), and runs of exact zeros in a live
// stream (what a blackout leaves behind).
func crucialStreams() map[string][]float64 {
	const n = 250
	rng := rand.New(rand.NewSource(31))
	random := make([]float64, n)
	duplicated := make([]float64, n)
	zeroRuns := make([]float64, n)
	levels := []float64{0, 12.5, 12.5 + 1e-9, 80, 300.25}
	for i := 0; i < n; i++ {
		random[i] = rng.Float64() * 900
		duplicated[i] = levels[rng.Intn(len(levels))]
		if i%40 < 7+rng.Intn(6) {
			zeroRuns[i] = 0
		} else {
			zeroRuns[i] = 150 + rng.NormFloat64()*4
		}
	}
	return map[string][]float64{"random": random, "duplicated": duplicated, "zero-runs": zeroRuns}
}

// TestCrucialIntervalMatchesReference compares both entries with the old
// body at every prefix length: CrucialInterval over the unsorted prefix, and
// CrucialSorted over the same prefix kept ascending by insertion, the way
// FastBTS.Run holds it.
func TestCrucialIntervalMatchesReference(t *testing.T) {
	for name, stream := range crucialStreams() {
		var settled []float64
		for n := 0; n <= len(stream); n++ {
			want := crucialIntervalRef(stream[:n])
			if got := estimate.CrucialInterval(stream[:n]); got != want {
				t.Fatalf("%s n=%d: CrucialInterval = %v, reference %v", name, n, got, want)
			}
			if got := estimate.CrucialSorted(settled, make([]float64, n)); got != want {
				t.Fatalf("%s n=%d: CrucialSorted = %v, reference %v", name, n, got, want)
			}
			if n < len(stream) {
				at, _ := slices.BinarySearch(settled, stream[n])
				settled = slices.Insert(settled, at, stream[n])
			}
		}
	}
}

// fastBTSReplayRef re-decides a default-parameter FastBTS test from its
// sample stream the way Run did before it kept a sorted prefix: a fresh
// crucialIntervalRef(samples[warmup:i]) at every step. It returns how many
// samples the test should have taken and the result it should have reported.
func fastBTSReplayRef(samples []float64) (int, float64) {
	const warmup, minSamples, agreeLag, agreeRounds, agreeThresh = 10, 30, 20, 5, 0.05
	var history []float64
	agree := 0
	for n := 1; n <= len(samples); n++ {
		if n < minSamples {
			history = append(history, 0)
			continue
		}
		est := crucialIntervalRef(samples[warmup:n])
		history = append(history, est)
		if lagIdx := len(history) - 1 - agreeLag; lagIdx >= 0 && history[lagIdx] > 0 && est > 0 {
			if math.Abs(est/history[lagIdx]-1) <= agreeThresh {
				agree++
			} else {
				agree = 0
			}
		}
		if agree >= agreeRounds {
			return n, est
		}
	}
	return len(samples), crucialIntervalRef(samples[warmup:])
}

func TestFastBTSRunMatchesReplay(t *testing.T) {
	blackouts := func(at time.Duration) linksim.Impairment {
		// 300 ms of silence each second: runs of zero samples after warm-up.
		return linksim.Impairment{Down: at%time.Second >= 700*time.Millisecond}
	}
	cases := map[string]linksim.Config{
		"quiet":     {CapacityMbps: 300, RTT: 40 * time.Millisecond, Fluctuation: 0.01},
		"noisy":     {CapacityMbps: 80, RTT: 60 * time.Millisecond, Fluctuation: 0.3, LossRate: 0.01},
		"blackouts": {CapacityMbps: 200, RTT: 40 * time.Millisecond, Fluctuation: 0.05, Impair: blackouts},
	}
	earlyStops := 0
	for name, cfg := range cases {
		for seed := int64(1); seed <= 4; seed++ {
			rep := (&FastBTS{}).Run(linksim.MustNew(cfg, seed))
			// Run stops at its own decision, so a replay of the stream it
			// returns must stop on the last sample with the same estimate.
			n, want := fastBTSReplayRef(rep.Samples)
			if n != len(rep.Samples) || rep.Result != want {
				t.Errorf("%s seed %d: stopped at %d samples with %v, replay says %d with %v",
					name, seed, len(rep.Samples), rep.Result, n, want)
			}
			if rep.Duration < 10*time.Second {
				earlyStops++
			}
		}
	}
	if earlyStops == 0 {
		t.Error("no case stopped on agreement: the early-stop return is untested")
	}
}
