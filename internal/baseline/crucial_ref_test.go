package baseline

import (
	"math"
	"testing"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/estimate"
	"github.com/mobilebandwidth/swiftest/internal/linksim"
)

// fastBTSReplayRef re-decides a default-parameter FastBTS test from its
// sample stream the way Run did before it kept a crucial-interval table: a
// fresh estimate.CrucialInterval(samples[warmup:i]) at every step. It
// returns how many samples the test should have taken and the result it
// should have reported.
func fastBTSReplayRef(samples []float64) (int, float64) {
	const warmup, minSamples, agreeLag, agreeRounds, agreeThresh = 10, 30, 20, 5, 0.05
	var history []float64
	agree := 0
	for n := 1; n <= len(samples); n++ {
		if n < minSamples {
			history = append(history, 0)
			continue
		}
		est := estimate.CrucialInterval(samples[warmup:n])
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
	return len(samples), estimate.CrucialInterval(samples[warmup:])
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
