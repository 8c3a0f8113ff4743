package core

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/gmm"
	"github.com/mobilebandwidth/swiftest/internal/linksim"
)

// model5G mirrors Figure 19's multi-modal 5G bandwidth distribution.
func model5G() *gmm.Model {
	return gmm.MustNew(
		gmm.Component{Weight: 0.25, Mu: 100, Sigma: 25},
		gmm.Component{Weight: 0.45, Mu: 300, Sigma: 50},
		gmm.Component{Weight: 0.20, Mu: 500, Sigma: 60},
		gmm.Component{Weight: 0.10, Mu: 800, Sigma: 80},
	)
}

func quietLink(capMbps float64, seed int64) *linksim.Link {
	return linksim.MustNew(linksim.Config{
		CapacityMbps: capMbps,
		RTT:          30 * time.Millisecond,
		Fluctuation:  0.01,
	}, seed)
}

func runSim(t *testing.T, capMbps float64, seed int64) Result {
	t.Helper()
	l := quietLink(capMbps, seed)
	p := NewSimProbe(l)
	defer p.Close()
	res, err := RunContext(context.Background(), p, Config{Model: model5G()})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunRequiresModel(t *testing.T) {
	l := quietLink(100, 1)
	p := NewSimProbe(l)
	defer p.Close()
	if _, err := RunContext(context.Background(), p, Config{}); err == nil {
		t.Fatal("expected error without a model")
	}
}

func TestAccuracyAcrossCapacities(t *testing.T) {
	for _, capMbps := range []float64{40, 120, 280, 450, 620, 950} {
		res := runSim(t, capMbps, 7)
		if rel := math.Abs(res.Bandwidth-capMbps) / capMbps; rel > 0.08 {
			t.Errorf("cap=%g: bandwidth %g off by %.1f%%", capMbps, res.Bandwidth, rel*100)
		}
	}
}

// TestSubSecondConvergence checks the paper's headline: Swiftest finishes in
// ≈1 s where BTS-APP needs a fixed 10 s (§5.3, Figure 20).
func TestSubSecondConvergence(t *testing.T) {
	for _, capMbps := range []float64{100, 300, 700} {
		res := runSim(t, capMbps, 3)
		if !res.Converged {
			t.Errorf("cap=%g: did not converge", capMbps)
		}
		if res.Duration > 2*time.Second {
			t.Errorf("cap=%g: duration %v, want ≈1 s", capMbps, res.Duration)
		}
	}
}

func TestInitialRateIsMostProbableMode(t *testing.T) {
	res := runSim(t, 300, 5)
	if res.InitialRate != 300 {
		t.Errorf("initial rate = %g, want the dominant 300 Mbps mode", res.InitialRate)
	}
}

func TestEscalationOnFastClient(t *testing.T) {
	// Client at 800 Mbps: the engine must escalate 300 → 500 → 800.
	res := runSim(t, 790, 9)
	if res.RateChanges < 2 {
		t.Errorf("rate changes = %d, want ≥2 for a fast client", res.RateChanges)
	}
	if res.FinalRate < 500 {
		t.Errorf("final rate = %g, want ≥500", res.FinalRate)
	}
}

func TestNoEscalationOnSlowClient(t *testing.T) {
	// Client at 80 Mbps: saturated below the initial mode; no escalation.
	res := runSim(t, 80, 11)
	if res.RateChanges != 0 {
		t.Errorf("rate changes = %d, want 0 for a client below the initial mode", res.RateChanges)
	}
}

func TestHeadroomBeyondLargestMode(t *testing.T) {
	// Client at 1200 Mbps exceeds every mode (max 800): headroom escalation
	// must still reach it.
	res := runSim(t, 1200, 13)
	if rel := math.Abs(res.Bandwidth-1200) / 1200; rel > 0.1 {
		t.Errorf("bandwidth = %g, want ≈1200 via headroom escalation", res.Bandwidth)
	}
	if res.FinalRate <= 800 {
		t.Errorf("final rate = %g, want beyond the 800 Mbps mode", res.FinalRate)
	}
}

func TestDeadlineOnNoisyLink(t *testing.T) {
	l := linksim.MustNew(linksim.Config{
		CapacityMbps: 200,
		RTT:          30 * time.Millisecond,
		Fluctuation:  0.4, // far beyond the 3 % criterion
	}, 17)
	p := NewSimProbe(l)
	defer p.Close()
	res, err := RunContext(context.Background(), p, Config{Model: model5G(), MaxDuration: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Error("converged under 40% noise — criterion too lax")
	}
	if res.Duration < 2*time.Second {
		t.Errorf("duration %v, want to run to the 2 s deadline", res.Duration)
	}
	if res.Bandwidth <= 0 {
		t.Error("deadline result must still be positive")
	}
}

func TestResultUsesTrailingWindowMean(t *testing.T) {
	res := runSim(t, 300, 19)
	n := len(res.Samples)
	if n < 10 {
		t.Fatalf("only %d samples", n)
	}
	want := 0.0
	for _, s := range res.Samples[n-10:] {
		want += s
	}
	want /= 10
	if math.Abs(res.Bandwidth-want) > 1e-9 {
		t.Errorf("bandwidth %g != trailing-window mean %g", res.Bandwidth, want)
	}
}

func TestDataUsageFarBelowFlooding(t *testing.T) {
	// §5.3: Swiftest uses ~32 MB for a 5G test vs BTS-APP's 289 MB.
	res := runSim(t, 300, 21)
	if res.DataMB <= 0 {
		t.Fatal("no data accounted")
	}
	if res.DataMB > 120 {
		t.Errorf("data usage = %g MB, want far below a 10 s flood (~375 MB)", res.DataMB)
	}
}

func TestSimProbeRejectsNegativeRate(t *testing.T) {
	l := quietLink(100, 1)
	p := NewSimProbe(l)
	defer p.Close()
	if err := p.SetRate(-5); err == nil {
		t.Error("negative rate accepted")
	}
}

// errProbe fails SetRate after n calls, to exercise error propagation.
type errProbe struct {
	*SimProbe
	calls, failAt int
}

func (e *errProbe) SetRate(mbps float64) error {
	e.calls++
	if e.calls >= e.failAt {
		return errors.New("server pool exhausted")
	}
	return e.SimProbe.SetRate(mbps)
}

func TestSetRateErrorsPropagate(t *testing.T) {
	l := quietLink(2000, 1)
	p := &errProbe{SimProbe: NewSimProbe(l), failAt: 1}
	if _, err := RunContext(context.Background(), p, Config{Model: model5G()}); err == nil {
		t.Error("initial SetRate failure not propagated")
	}
	l2 := quietLink(2000, 1)
	p2 := &errProbe{SimProbe: NewSimProbe(l2), failAt: 2}
	if _, err := RunContext(context.Background(), p2, Config{Model: model5G()}); err == nil {
		t.Error("escalation SetRate failure not propagated")
	}
}

func TestConfigDefaults(t *testing.T) {
	// A zero MaxDuration selects 5 s: a link too noisy to converge rides to it.
	l := linksim.MustNew(linksim.Config{CapacityMbps: 200, RTT: 30 * time.Millisecond, Fluctuation: 0.4}, 17)
	p := NewSimProbe(l)
	defer p.Close()
	res, err := RunContext(context.Background(), p, Config{Model: model5G()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged || res.Duration != 5*time.Second {
		t.Errorf("converged=%v duration=%v, want the 5 s default deadline", res.Converged, res.Duration)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	a := runSim(t, 333, 23)
	b := runSim(t, 333, 23)
	if a.Bandwidth != b.Bandwidth || a.Duration != b.Duration {
		t.Error("same seed produced different results")
	}
}

// TestResultWithinSampleRange property-checks that the engine's reported
// bandwidth always lies within the range of the samples it collected, across
// random link capacities and noise levels.
func TestResultWithinSampleRange(t *testing.T) {
	f := func(capSeed, noiseSeed uint32) bool {
		capMbps := 5 + float64(capSeed%120000)/100 // 5–1205 Mbps
		fluct := float64(noiseSeed%30) / 200       // 0–14.5 %
		l := linksim.MustNew(linksim.Config{
			CapacityMbps: capMbps,
			RTT:          30 * time.Millisecond,
			Fluctuation:  fluct,
		}, int64(capSeed)^int64(noiseSeed)<<16)
		p := NewSimProbe(l)
		defer p.Close()
		res, err := RunContext(context.Background(), p, Config{Model: model5G(), MaxDuration: 2 * time.Second})
		if err != nil || len(res.Samples) == 0 {
			return false
		}
		lo, hi := res.Samples[0], res.Samples[0]
		for _, s := range res.Samples {
			lo = math.Min(lo, s)
			hi = math.Max(hi, s)
		}
		return res.Bandwidth >= lo-1e-9 && res.Bandwidth <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestEscalationMonotone property-checks that the probing rate never
// decreases during a test.
func TestEscalationMonotone(t *testing.T) {
	f := func(capSeed uint32) bool {
		capMbps := 10 + float64(capSeed%100000)/100
		l := linksim.MustNew(linksim.Config{
			CapacityMbps: capMbps, RTT: 30 * time.Millisecond, Fluctuation: 0.01,
		}, int64(capSeed))
		p := NewSimProbe(l)
		defer p.Close()
		res, err := RunContext(context.Background(), p, Config{Model: model5G(), MaxDuration: 2 * time.Second})
		if err != nil {
			return false
		}
		return res.FinalRate >= res.InitialRate
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestSimSetupAllocations pins what an emulated test pays before its first
// sample: the link, its generator and the flow the first SetRate opens
// (448 B in five allocations). The probe keeps its one server inline and
// stays on the stack here. A generator whose seeding fills a table —
// math/rand's 607-word source cost 4.9 KB here — shows up in the byte
// bound.
func TestSimSetupAllocations(t *testing.T) {
	cfg := linksim.Config{CapacityMbps: 300, RTT: 30 * time.Millisecond, Fluctuation: 0.01}
	seed := int64(0)
	setup := func() {
		seed++
		l, err := linksim.New(cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		p := NewSimProbe(l)
		if err := p.SetRate(100); err != nil {
			t.Fatal(err)
		}
		p.Close()
	}
	const wantAllocs = 5
	if got := testing.AllocsPerRun(200, setup); got != wantAllocs {
		t.Errorf("linksim.New + NewSimProbe + SetRate allocate %v times, want %d", got, wantAllocs)
	}
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		setup()
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > 1024 {
		t.Errorf("linksim.New + NewSimProbe + SetRate allocate %d bytes, want ≤ 1024 (a seeded table?)", perRun)
	}
}
