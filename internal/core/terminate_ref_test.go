package core

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/estimate"
	"github.com/mobilebandwidth/swiftest/internal/linksim"
	"github.com/mobilebandwidth/swiftest/internal/obs"
)

// TestFastBTSDecideMatchesForwardReplay holds both entries — the pure
// Decide, and the per-test instance fed the prefixes in order the way
// RunContext does — to one estimate.FastBTSStop fed the stream a sample at a
// time, on every prefix of full-length streams from the emulated links.
func TestFastBTSDecideMatchesForwardReplay(t *testing.T) {
	stops := 0
	for name, cfg := range fastBTSLinks() {
		for seed := int64(1); seed <= 2; seed++ {
			stream, _ := runFastBTS(t, cfg, seed, neverStop{})
			var rule estimate.FastBTSStop
			perTest := FastBTSPolicy{}.forTest()
			for n := 0; n <= len(stream.Samples); n++ {
				want := Decision{}
				if n > 0 {
					if est, streak, judged := rule.Add(stream.Samples[n-1]); judged {
						want = Decision{Checked: true, Check: float64(streak), Threshold: estimate.FastBTSAgreeRounds}
						if streak >= estimate.FastBTSAgreeRounds {
							want.Stop, want.Estimate = true, est
							stops++
						}
					}
				}
				if got := (FastBTSPolicy{}).Decide(stream.Samples[:n], nil, 0); got != want {
					t.Fatalf("%s seed %d n=%d: Decide = %+v, forward replay %+v", name, seed, n, got, want)
				}
				if got := perTest.Decide(stream.Samples[:n], nil, 0); got != want {
					t.Fatalf("%s seed %d n=%d: per-test Decide = %+v, forward replay %+v", name, seed, n, got, want)
				}
			}
		}
	}
	if stops == 0 {
		t.Error("no prefix stopped: the stop decision is untested")
	}
}

// neverStop rides every test to the deadline, so a run yields a
// full-length sample stream.
type neverStop struct{}

func (neverStop) Name() string { return "never" }

func (neverStop) Decide([]float64, []estimate.TrajectoryPoint, time.Duration) Decision {
	return Decision{}
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
