package exper

import (
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/baseline"
	"github.com/mobilebandwidth/swiftest/internal/core"
	"github.com/mobilebandwidth/swiftest/internal/linksim"
)

// TestFastBTSProberMatchesPolicy: "FastBTS" names one system. The baseline
// prober behind Fig 23–25 and the engine's -terminate fastbts policy must
// judge the prober's own samples alike — the policy stops on the last
// sample, reporting the prober's result bit for bit, or never on a test that
// rode to the deadline. The links are static at 30 ms RTT, seeds 1–40 at
// each rate. Among them, 300 Mbit/s seed 20 is the case two separate
// copies of the rule once split furthest on: the prober stopped at sample 94
// and the policy at sample 35.
func TestFastBTSProberMatchesPolicy(t *testing.T) {
	links := []linksim.Config{
		{CapacityMbps: 50, RTT: 30 * time.Millisecond, Fluctuation: 0.02},
		{CapacityMbps: 300, RTT: 30 * time.Millisecond, Fluctuation: 0.05, LossRate: 0.001},
	}
	var policy core.TerminationPolicy = core.FastBTSPolicy{}
	for _, cfg := range links {
		for seed := int64(1); seed <= 40; seed++ {
			name := fmt.Sprintf("%g Mbit/s seed %d", cfg.CapacityMbps, seed)
			rep := (&baseline.FastBTS{}).Run(linksim.MustNew(cfg, seed))
			stopAt, est := 0, 0.0
			for n := 1; n <= len(rep.Samples) && stopAt == 0; n++ {
				if d := policy.Decide(rep.Samples[:n], nil, 0); d.Stop {
					stopAt, est = n, d.Estimate
				}
			}
			switch {
			case stopAt == 0 && rep.Duration < 10*time.Second:
				t.Errorf("%s: the prober stopped at sample %d, the policy never", name, len(rep.Samples))
			case stopAt != 0 && (stopAt != len(rep.Samples) || math.Float64bits(est) != math.Float64bits(rep.Result)):
				t.Errorf("%s: the prober stopped at sample %d with %v, the policy at %d with %v",
					name, len(rep.Samples), rep.Result, stopAt, est)
			}
		}
	}
}
