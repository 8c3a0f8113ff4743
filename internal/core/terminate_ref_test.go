package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/estimate"
	"github.com/mobilebandwidth/swiftest/internal/linksim"
	"github.com/mobilebandwidth/swiftest/internal/obs"
)

// fastBTSDecideRef is FastBTSPolicy.Decide as it stood before the streak was
// counted backwards: replay every prefix from MinSamples to n, two fresh
// crucial-interval estimates per step.
func fastBTSDecideRef(f FastBTSPolicy, samples []float64) Decision {
	f = f.withDefaults()
	estimateAt := func(n int) float64 {
		if n <= f.Warmup {
			return 0
		}
		return estimate.CrucialInterval(samples[f.Warmup:n])
	}
	n := len(samples)
	if n < f.MinSamples {
		return Decision{}
	}
	agree := 0
	var est float64
	for i := f.MinSamples; i <= n; i++ {
		est = estimateAt(i)
		prev := estimateAt(i - f.AgreeLag)
		if prev > 0 && est > 0 && relDiff(est, prev) <= f.AgreeThreshold {
			agree++
		} else {
			agree = 0
		}
	}
	d := Decision{Checked: true, Check: float64(agree), Threshold: float64(f.AgreeRounds)}
	if agree >= f.AgreeRounds {
		d.Stop = true
		d.Estimate = est
	}
	return d
}

// fastBTSStreams are 96-sample streams of the shapes the agreement rule
// must tell apart: a ramp that settles (the streak grows far past
// AgreeRounds), a link that switches level every few samples (streaks start
// and break, never reaching AgreeRounds at the default parameters), a plateau
// with blackouts (zero estimates), and plain noise.
func fastBTSStreams() map[string][]float64 {
	const n = 96
	rng := rand.New(rand.NewSource(17))
	settling := make([]float64, n)
	switching := make([]float64, n)
	blackouts := make([]float64, n)
	noise := make([]float64, n)
	for i := range settling {
		settling[i] = 300*(1-math.Exp(-float64(i)/6)) + rng.NormFloat64()*2
		level := 200.0
		if (i/26)%2 == 1 {
			level = 90
		}
		switching[i] = level + rng.NormFloat64()*3
		blackouts[i] = 150 + rng.NormFloat64()
		if i < 45 || i%30 < 8 {
			blackouts[i] = 0
		}
		noise[i] = rng.Float64() * 400
	}
	return map[string][]float64{"settling": settling, "switching": switching, "blackouts": blackouts, "noise": noise}
}

// TestFastBTSDecideMatchesForwardReplay holds the backward-counted rule to
// the old body on every prefix, through both entries: the pure Decide, and
// the per-test instance fed the prefixes in order the way RunContext does.
func TestFastBTSDecideMatchesForwardReplay(t *testing.T) {
	policies := map[string]FastBTSPolicy{
		"default":         {},
		"min-below-lag":   {MinSamples: 12, Warmup: 4, AgreeLag: 20},
		"lag-past-warmup": {MinSamples: 8, Warmup: 3, AgreeLag: 5, AgreeRounds: 3},
		"agree-at-min":    {MinSamples: 12, Warmup: 2, AgreeLag: 4, AgreeRounds: 3}, // the first judged prefix can already agree
		"long-warmup":     {MinSamples: 20, Warmup: 25, AgreeLag: 10, AgreeThreshold: 0.2, AgreeRounds: 8},
		"tight":           {AgreeThreshold: 0.005, AgreeRounds: 2},
	}
	longest, broken := 0.0, false
	for pname, policy := range policies {
		for sname, stream := range fastBTSStreams() {
			perTest := policy.forTest()
			prev := Decision{}
			for n := 0; n <= len(stream); n++ {
				want := fastBTSDecideRef(policy, stream[:n])
				if got := policy.Decide(stream[:n], nil, 0); got != want {
					t.Fatalf("%s/%s n=%d: Decide = %+v, forward replay %+v", pname, sname, n, got, want)
				}
				if got := perTest.Decide(stream[:n], nil, 0); got != want {
					t.Fatalf("%s/%s n=%d: per-test Decide = %+v, forward replay %+v", pname, sname, n, got, want)
				}
				longest = math.Max(longest, want.Check-want.Threshold)
				if prev.Check > 0 && !prev.Stop && want.Check == 0 {
					broken = true
				}
				prev = want
			}
		}
	}
	if longest < 10 {
		t.Errorf("longest streak ran %v past AgreeRounds: streaks beyond the stop are untested", longest)
	}
	if !broken {
		t.Error("no streak broke before reaching AgreeRounds: the reset is untested")
	}
}

// pureOnly hides everything of a policy but the TerminationPolicy methods,
// so RunContext cannot find the per-test hook and calls the pure Decide.
type pureOnly struct{ TerminationPolicy }

// fastBTSLinks are emulated links on which the FastBTS rule stops early,
// stops late, and rides to the deadline.
func fastBTSLinks() map[string]linksim.Config {
	return map[string]linksim.Config{
		"quiet": {CapacityMbps: 300, RTT: 30 * time.Millisecond, Fluctuation: 0.01},
		"noisy": {CapacityMbps: 120, RTT: 50 * time.Millisecond, Fluctuation: 0.3, LossRate: 0.01},
		"dips": {CapacityMbps: 450, RTT: 30 * time.Millisecond, Fluctuation: 0.02,
			Dipping: &linksim.Dips{RatePerSec: 1.5, Depth: 0.5, Duration: 200 * time.Millisecond}},
		// Capacity climbs 40 % a second: the estimate never agrees with the
		// one a second earlier, and the test rides to the deadline.
		"climbing": {StateHook: func(at time.Duration) linksim.LinkState {
			return linksim.LinkState{Name: "climb", CapacityMbps: 80 * math.Pow(1.4, at.Seconds()), RTT: 30 * time.Millisecond, Fluctuation: 0.02}
		}},
	}
}

func runFastBTS(t *testing.T, cfg linksim.Config, seed int64, policy TerminationPolicy) (Result, []obs.Event) {
	t.Helper()
	p := NewSimProbe(linksim.MustNew(cfg, seed))
	defer p.Close()
	tr := obs.NewTrace(0)
	res, err := RunContext(context.Background(), p, Config{Model: model5G(), Terminate: policy, Trace: tr})
	if err != nil {
		t.Error(err)
	}
	return res, tr.Events()
}

// TestRunContextPerTestPolicyMatchesPure: the per-test instance RunContext
// takes from FastBTSPolicy must leave no mark on a test — same Result, same
// trace events (the converge_check streak values included) as the pure path.
func TestRunContextPerTestPolicyMatchesPure(t *testing.T) {
	converged, timedOut := 0, 0
	for name, cfg := range fastBTSLinks() {
		for seed := int64(1); seed <= 4; seed++ {
			got, gotEvents := runFastBTS(t, cfg, seed, FastBTSPolicy{})
			want, wantEvents := runFastBTS(t, cfg, seed, pureOnly{FastBTSPolicy{}})
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s seed %d: result differs from the pure path:\n got  %+v\n want %+v", name, seed, got, want)
			}
			if !reflect.DeepEqual(gotEvents, wantEvents) {
				t.Errorf("%s seed %d: trace differs from the pure path (%d vs %d events)", name, seed, len(gotEvents), len(wantEvents))
			}
			if got.Converged {
				converged++
			} else {
				timedOut++
			}
		}
	}
	if converged == 0 || timedOut == 0 {
		t.Errorf("%d tests converged and %d timed out: both endings must be compared", converged, timedOut)
	}
}

// TestSharedPolicyAcrossGoroutines is the purity contract of the interface
// doc: one policy value serves concurrent tests, and each test's result is
// what it would have been alone. Run under -race.
func TestSharedPolicyAcrossGoroutines(t *testing.T) {
	const tests = 8
	var shared TerminationPolicy = FastBTSPolicy{}
	cfg := fastBTSLinks()["noisy"]
	serial := make([]Result, tests)
	for i := range serial {
		serial[i], _ = runFastBTS(t, cfg, int64(i+1), shared)
	}
	parallel := make([]Result, tests)
	var wg sync.WaitGroup
	for i := range parallel {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parallel[i], _ = runFastBTS(t, cfg, int64(i+1), shared)
		}()
	}
	wg.Wait()
	for i := range serial {
		if !reflect.DeepEqual(parallel[i], serial[i]) {
			t.Errorf("seed %d: concurrent result differs from the serial one", i+1)
		}
	}
}
