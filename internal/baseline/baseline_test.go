package baseline

import (
	"math"
	"testing"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/estimate"
	"github.com/mobilebandwidth/swiftest/internal/linksim"
)

func quietLink(t *testing.T, capMbps float64, seed int64) *linksim.Link {
	t.Helper()
	return linksim.MustNew(linksim.Config{
		CapacityMbps: capMbps,
		RTT:          40 * time.Millisecond,
		Fluctuation:  0.01,
	}, seed)
}

func TestBTSAppRun(t *testing.T) {
	l := quietLink(t, 200, 1)
	rep := (&BTSApp{}).Run(l)
	if rep.Duration != 10*time.Second {
		t.Errorf("duration = %v, want exactly 10 s", rep.Duration)
	}
	if len(rep.Samples) != 200 {
		t.Errorf("samples = %d, want 200", len(rep.Samples))
	}
	if math.Abs(rep.Result-200) > 20 {
		t.Errorf("result = %g, want ≈200", rep.Result)
	}
	// 10 s at ≈200 Mbps ≈ 250 MB ceiling; must be substantial but bounded.
	if rep.DataMB < 100 || rep.DataMB > 260 {
		t.Errorf("data usage = %g MB, implausible", rep.DataMB)
	}
	if rep.Flows < 2 {
		t.Errorf("flows = %d, expected scale-up above 25 Mbps ladder", rep.Flows)
	}
}

func TestBTSAppAccuracyAcrossCapacities(t *testing.T) {
	for _, capMbps := range []float64{30, 100, 500, 900} {
		l := quietLink(t, capMbps, 3)
		rep := (&BTSApp{}).Run(l)
		if math.Abs(rep.Result-capMbps)/capMbps > 0.15 {
			t.Errorf("cap=%g: result %g off by >15%%", capMbps, rep.Result)
		}
	}
}

func TestFASTRun(t *testing.T) {
	l := quietLink(t, 300, 5)
	rep := (&FAST{}).Run(l)
	if rep.Duration < 5*time.Second || rep.Duration > 30*time.Second {
		t.Errorf("duration = %v outside [5s,30s]", rep.Duration)
	}
	if math.Abs(rep.Result-300) > 45 {
		t.Errorf("result = %g, want ≈300", rep.Result)
	}
}

func TestFASTStopsEarlyOnQuietLink(t *testing.T) {
	// Zero fluctuation: stability is reached at the minimum duration.
	l := linksim.MustNew(linksim.Config{CapacityMbps: 100, RTT: 40 * time.Millisecond}, 1)
	rep := (&FAST{}).Run(l)
	if rep.Duration > 8*time.Second {
		t.Errorf("duration = %v on a perfectly quiet link, want ≈5 s", rep.Duration)
	}
}

func TestFASTTimesOutOnNoisyLink(t *testing.T) {
	l := linksim.MustNew(linksim.Config{
		CapacityMbps: 100, RTT: 40 * time.Millisecond, Fluctuation: 0.3,
	}, 9)
	rep := (&FAST{}).Run(l)
	if rep.Duration < fastMaxDuration {
		t.Errorf("duration = %v, expected timeout at %v under 30%% noise", rep.Duration, fastMaxDuration)
	}
	if rep.Result <= 0 {
		t.Error("timed-out test must still report a result")
	}
}

func TestFastBTSRun(t *testing.T) {
	l := quietLink(t, 300, 7)
	rep := (&FastBTS{}).Run(l)
	if rep.Duration <= 0 || rep.Duration > 10*time.Second {
		t.Errorf("duration = %v", rep.Duration)
	}
	if rep.Result <= 0 {
		t.Error("no result")
	}
}

// TestFastBTSRunMatchesReplay: Run stops at its own decision, so a fresh
// estimate.FastBTSStop fed the samples it returns must first reach
// FastBTSAgreeRounds on the last one, with Run's result — or never, on a
// test that rode to the deadline and reported the deadline estimate.
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
			var rule estimate.FastBTSStop
			n, want := 0, 0.0
			for i, x := range rep.Samples {
				if est, streak, _ := rule.Add(x); streak >= estimate.FastBTSAgreeRounds {
					n, want = i+1, est
					break
				}
			}
			if n == 0 { // the rule never stopped: the deadline answer
				n, want = len(rep.Samples), rule.Estimate()
			}
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

// TestFastBTSFasterButLessAccurate verifies the §5.3 finding: FastBTS
// converges faster than FAST but underestimates, because its crucial
// interval stabilises before the TCP ramp saturates the link.
func TestFastBTSFasterButLessAccurate(t *testing.T) {
	const capMbps = 600.0
	lf := quietLink(t, capMbps, 11)
	fastRep := (&FAST{}).Run(lf)
	lb := quietLink(t, capMbps, 11)
	btsRep := (&FastBTS{}).Run(lb)
	if btsRep.Duration >= fastRep.Duration {
		t.Errorf("FastBTS (%v) not faster than FAST (%v)", btsRep.Duration, fastRep.Duration)
	}
	fastErr := math.Abs(fastRep.Result-capMbps) / capMbps
	btsErr := math.Abs(btsRep.Result-capMbps) / capMbps
	if btsErr <= fastErr {
		t.Errorf("FastBTS err %.3f not worse than FAST err %.3f on a high-BDP link", btsErr, fastErr)
	}
	if btsRep.Result >= capMbps {
		t.Errorf("FastBTS result %g should underestimate %g", btsRep.Result, capMbps)
	}
}

func TestProberNames(t *testing.T) {
	if (&BTSApp{}).Name() != "bts-app" || (&FAST{}).Name() != "fast" || (&FastBTS{}).Name() != "fastbts" {
		t.Error("prober names wrong")
	}
}

func TestBTSAppShapedLinkLowerResult(t *testing.T) {
	// Traffic shaping (burst then clamp) must pull the estimate down toward
	// the sustained rate — the >30% deviation tail of Figure 22.
	shaped := linksim.MustNew(linksim.Config{
		CapacityMbps: 400, RTT: 40 * time.Millisecond,
		Shaping: &linksim.Shaper{BurstMB: 20, SustainedMbps: 100},
	}, 13)
	rep := (&BTSApp{}).Run(shaped)
	if rep.Result > 200 {
		t.Errorf("result = %g on a link shaped to 100 Mbps sustained", rep.Result)
	}
}
