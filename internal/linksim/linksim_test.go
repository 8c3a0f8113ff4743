package linksim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func testLink(t *testing.T, cfg Config) *Link {
	t.Helper()
	l, err := New(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// RunFor advances the link for the given virtual duration.
func (l *Link) RunFor(d time.Duration) {
	steps := int(d / Tick)
	for i := 0; i < steps; i++ {
		l.Advance()
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{CapacityMbps: 0, RTT: time.Millisecond},
		{CapacityMbps: 100, RTT: 0},
		{CapacityMbps: 100, RTT: time.Millisecond, LossRate: 1.5},
		{CapacityMbps: 100, RTT: time.Millisecond, LossRate: -0.1},
	}
	for i, cfg := range cases {
		if _, err := New(cfg, 1); err == nil {
			t.Errorf("case %d: expected error for %+v", i, cfg)
		}
	}
}

func TestSingleFlowSaturates(t *testing.T) {
	l := testLink(t, Config{CapacityMbps: 100, RTT: 30 * time.Millisecond})
	f := l.NewFlow()
	f.SetOffered(1000) // way above capacity
	l.RunFor(time.Second)
	if math.Abs(f.Achieved()-100) > 1e-6 {
		t.Errorf("achieved = %g, want 100", f.Achieved())
	}
	// Delivered ≈ 100 Mbps × 1 s = 12.5 MB.
	wantBytes := 100e6 / 8
	if math.Abs(f.DeliveredBytes()-wantBytes) > wantBytes*0.01 {
		t.Errorf("delivered = %g bytes, want ≈%g", f.DeliveredBytes(), wantBytes)
	}
}

func TestUnderOfferedFlowGetsOffered(t *testing.T) {
	l := testLink(t, Config{CapacityMbps: 100, RTT: 30 * time.Millisecond})
	f := l.NewFlow()
	f.SetOffered(40)
	l.RunFor(500 * time.Millisecond)
	if math.Abs(f.Achieved()-40) > 1e-9 {
		t.Errorf("achieved = %g, want 40", f.Achieved())
	}
}

func TestMaxMinFairness(t *testing.T) {
	l := testLink(t, Config{CapacityMbps: 90, RTT: 30 * time.Millisecond})
	small := l.NewFlow()
	big1 := l.NewFlow()
	big2 := l.NewFlow()
	small.SetOffered(10)
	big1.SetOffered(1000)
	big2.SetOffered(1000)
	l.Advance()
	// Max-min: small gets 10, the rest split 80 evenly.
	if math.Abs(small.Achieved()-10) > 1e-9 {
		t.Errorf("small = %g, want 10", small.Achieved())
	}
	if math.Abs(big1.Achieved()-40) > 1e-9 || math.Abs(big2.Achieved()-40) > 1e-9 {
		t.Errorf("big flows = %g/%g, want 40/40", big1.Achieved(), big2.Achieved())
	}
}

// TestFairShareConservation property-checks that allocated capacity never
// exceeds link capacity and never exceeds any flow's offered rate.
func TestFairShareConservation(t *testing.T) {
	f := func(offers []float64, capSeed uint32) bool {
		if len(offers) == 0 || len(offers) > 20 {
			return true
		}
		cap := 1 + float64(capSeed%10000)/10
		l := MustNew(Config{CapacityMbps: cap, RTT: 20 * time.Millisecond}, 7)
		flows := make([]*Flow, len(offers))
		for i, o := range offers {
			flows[i] = l.NewFlow()
			flows[i].SetOffered(math.Abs(math.Mod(o, 5000)))
		}
		l.Advance()
		var sum float64
		for _, fl := range flows {
			if fl.Achieved() > fl.link.flows[fl.row].offered+1e-9 {
				return false
			}
			sum += fl.Achieved()
		}
		return sum <= cap+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Error(err)
	}
}

func TestFluctuationStaysNearCapacity(t *testing.T) {
	l := testLink(t, Config{CapacityMbps: 300, RTT: 30 * time.Millisecond, Fluctuation: 0.05})
	f := l.NewFlow()
	f.SetOffered(10000)
	var sum float64
	n := 0
	for i := 0; i < 1000; i++ {
		l.Advance()
		sum += f.Achieved()
		n++
	}
	mean := sum / float64(n)
	if math.Abs(mean-300) > 15 {
		t.Errorf("mean achieved = %g, want ≈300", mean)
	}
}

func TestSpuriousLossSignals(t *testing.T) {
	l := testLink(t, Config{CapacityMbps: 100, RTT: 30 * time.Millisecond, LossRate: 0.5})
	f := l.NewFlow()
	f.SetOffered(10)
	losses := 0
	for i := 0; i < 1000; i++ {
		l.Advance()
		if f.LossSignal() {
			losses++
		}
	}
	if losses < 400 || losses > 600 {
		t.Errorf("losses = %d/1000 at rate 0.5", losses)
	}
}

func TestCongestionLossOnOverflow(t *testing.T) {
	l := testLink(t, Config{CapacityMbps: 50, RTT: 20 * time.Millisecond, BufferBDP: 0.5})
	f := l.NewFlow()
	f.SetOffered(500) // 10x capacity: the buffer must overflow quickly
	sawLoss := false
	for i := 0; i < 100; i++ {
		l.Advance()
		if f.LossSignal() {
			sawLoss = true
			break
		}
	}
	if !sawLoss {
		t.Error("no congestion loss despite 10x overload")
	}
}

func TestQueueInflatesRTT(t *testing.T) {
	l := testLink(t, Config{CapacityMbps: 50, RTT: 20 * time.Millisecond, BufferBDP: 2})
	f := l.NewFlow()
	if f.RTT() != 20*time.Millisecond {
		t.Errorf("idle RTT = %v, want 20ms", f.RTT())
	}
	f.SetOffered(500)
	l.RunFor(200 * time.Millisecond)
	if f.RTT() <= 20*time.Millisecond {
		t.Errorf("backlogged RTT = %v, want > base", f.RTT())
	}
}

func TestRTTDrainsAfterBacklog(t *testing.T) {
	l := testLink(t, Config{CapacityMbps: 50, RTT: 20 * time.Millisecond, BufferBDP: 2})
	f := l.NewFlow()
	f.SetOffered(500)
	l.RunFor(200 * time.Millisecond)
	inflated := f.RTT()
	f.SetOffered(0)
	l.RunFor(2 * time.Second)
	if f.RTT() >= inflated {
		t.Errorf("queue did not drain: %v → %v", inflated, f.RTT())
	}
}

// TestLinkRTTIsLinkWide: the RTT is the link's, base RTT plus queueing
// delay, so every flow, open or closed, reports Link.RTT before the first
// Advance and after each one — on a static link, a StateHook link and a
// dipping link, while the queue fills and drains.
func TestLinkRTTIsLinkWide(t *testing.T) {
	states := [2]LinkState{
		{Name: "good", CapacityMbps: 80, RTT: 25 * time.Millisecond, Fluctuation: 0.05},
		{Name: "fade", CapacityMbps: 20, RTT: 60 * time.Millisecond, Fluctuation: 0.1},
	}
	cases := map[string]Config{
		"static": {CapacityMbps: 60, RTT: 30 * time.Millisecond, Fluctuation: 0.05, BufferBDP: 2},
		"statehook": {BufferBDP: 2, StateHook: func(at time.Duration) LinkState {
			return states[int(at/(400*time.Millisecond))%2]
		}},
		"dipping": {
			CapacityMbps: 60, RTT: 30 * time.Millisecond, Fluctuation: 0.05,
			Dipping: &Dips{RatePerSec: 2, Depth: 0.7, Duration: 100 * time.Millisecond},
		},
	}
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			l := testLink(t, cfg)
			flows := []*Flow{l.NewFlow(), l.NewFlow(), l.NewFlow()}
			check := func(tick int) {
				t.Helper()
				for i, f := range flows {
					if f.RTT() != l.RTT() {
						t.Fatalf("tick %d: flow %d (closed %v) RTT %v, link %v", tick, i, f.closed, f.RTT(), l.RTT())
					}
				}
			}
			check(0)
			inflated := false
			for tick := 1; tick <= 300; tick++ {
				switch tick {
				case 60:
					flows[1].Close()
				case 120:
					flows = append(flows, l.NewFlow())
				}
				// Half a second over capacity, half a second well under.
				rate := 40.0
				if tick/50%2 == 1 {
					rate = 5
				}
				for _, f := range flows {
					f.SetOffered(rate)
				}
				l.Advance()
				check(tick)
				if l.RTT() > l.BaseRTT() {
					inflated = true
				}
			}
			if !inflated {
				t.Fatal("the queue never built: the RTT never left the base RTT")
			}
		})
	}
}

func TestShaperClampsAfterBurst(t *testing.T) {
	l := testLink(t, Config{
		CapacityMbps: 200, RTT: 20 * time.Millisecond,
		Shaping: &Shaper{BurstMB: 5, SustainedMbps: 50},
	})
	f := l.NewFlow()
	f.SetOffered(1000)
	// Burn through the burst: 200 Mbps = 25 MB/s, so 5 MB ≈ 200 ms.
	l.RunFor(400 * time.Millisecond)
	if f.Achieved() > 51 {
		t.Errorf("post-burst achieved = %g, want ≤50", f.Achieved())
	}
}

func TestFlowClose(t *testing.T) {
	l := testLink(t, Config{CapacityMbps: 100, RTT: 20 * time.Millisecond})
	a := l.NewFlow()
	b := l.NewFlow()
	a.SetOffered(1000)
	b.SetOffered(1000)
	l.Advance()
	a.Close()
	a.Close() // idempotent
	l.Advance()
	if math.Abs(b.Achieved()-100) > 1e-9 {
		t.Errorf("survivor achieved = %g after close, want 100", b.Achieved())
	}
}

// windowMbps is the throughput (Mbps) a flow delivered since *last bytes
// over window, advancing *last: the 50 ms sample every BTS consumes.
func windowMbps(f *Flow, last *float64, window time.Duration) float64 {
	total := f.DeliveredBytes()
	bytes := total - *last
	*last = total
	return bytes * 8 / window.Seconds() / 1e6
}

func TestSampler(t *testing.T) {
	l := testLink(t, Config{CapacityMbps: 80, RTT: 20 * time.Millisecond})
	f := l.NewFlow()
	f.SetOffered(1000)
	var last float64
	l.RunFor(SampleInterval)
	got := windowMbps(f, &last, SampleInterval)
	if math.Abs(got-80) > 1e-6 {
		t.Errorf("sample = %g, want 80", got)
	}
	// Without an Advance the next window delivers nothing.
	if got := windowMbps(f, &last, SampleInterval); got != 0 {
		t.Errorf("sample right after the last = %g, want 0 over an empty window", got)
	}
}

func TestSamplerSeriesTracksRateChanges(t *testing.T) {
	l := testLink(t, Config{CapacityMbps: 500, RTT: 20 * time.Millisecond})
	f := l.NewFlow()
	var last float64
	f.SetOffered(100)
	l.RunFor(SampleInterval)
	first := windowMbps(f, &last, SampleInterval)
	f.SetOffered(400)
	l.RunFor(SampleInterval)
	second := windowMbps(f, &last, SampleInterval)
	if math.Abs(first-100) > 1e-6 || math.Abs(second-400) > 1e-6 {
		t.Errorf("samples = %g, %g; want 100, 400", first, second)
	}
}

func TestDeterminismAcrossSeeds(t *testing.T) {
	run := func(seed int64) float64 {
		l := MustNew(Config{CapacityMbps: 200, RTT: 30 * time.Millisecond, Fluctuation: 0.1}, seed)
		f := l.NewFlow()
		f.SetOffered(1000)
		l.RunFor(time.Second)
		return f.DeliveredBytes()
	}
	if run(42) != run(42) {
		t.Error("same seed produced different results")
	}
	if run(42) == run(43) {
		t.Error("different seeds produced identical fluctuating results")
	}
}

func TestDipsDepressCapacity(t *testing.T) {
	l := testLink(t, Config{
		CapacityMbps: 100,
		RTT:          20 * time.Millisecond,
		Dipping:      &Dips{RatePerSec: 2, Depth: 0.5, Duration: 200 * time.Millisecond},
	})
	f := l.NewFlow()
	f.SetOffered(1000)
	dipped := 0
	n := 2000
	var sum float64
	for i := 0; i < n; i++ {
		l.Advance()
		sum += f.Achieved()
		if f.Achieved() < 60 {
			dipped++
		}
	}
	if dipped == 0 {
		t.Fatal("no dips observed at 2 dips/s over 20 s")
	}
	// Expected dip occupancy ≈ rate × duration = 0.4 of the time (capped by
	// non-overlap); allow a wide band.
	frac := float64(dipped) / float64(n)
	if frac < 0.1 || frac > 0.6 {
		t.Errorf("dip occupancy = %.2f, want ≈0.3", frac)
	}
	mean := sum / float64(n)
	if mean >= 99 {
		t.Errorf("mean %.1f shows dips had no effect", mean)
	}
	if mean < 60 {
		t.Errorf("mean %.1f too low: dips should be episodic, not permanent", mean)
	}
}

func TestNoDipsWithoutConfig(t *testing.T) {
	l := testLink(t, Config{CapacityMbps: 100, RTT: 20 * time.Millisecond})
	f := l.NewFlow()
	f.SetOffered(1000)
	for i := 0; i < 500; i++ {
		l.Advance()
		if f.Achieved() < 99.9 {
			t.Fatalf("capacity dipped to %g without a Dips config", f.Achieved())
		}
	}
}

func TestImpairmentDownSilencesFlowAndFreesCapacity(t *testing.T) {
	l := MustNew(Config{CapacityMbps: 100, RTT: 40 * time.Millisecond}, 1)
	a := l.NewFlow()
	b := l.NewFlow()
	a.SetOffered(80)
	b.SetOffered(80)
	// Down from 500 ms of virtual time onward.
	a.SetImpairment(func(at time.Duration) Impairment {
		return Impairment{Down: at >= 500*time.Millisecond}
	})

	l.RunFor(400 * time.Millisecond)
	if a.Achieved() < 40 || b.Achieved() < 40 {
		t.Fatalf("before the fault both flows should share ≈50/50, got a=%.1f b=%.1f",
			a.Achieved(), b.Achieved())
	}
	l.RunFor(300 * time.Millisecond) // well past the activation edge
	if a.Achieved() != 0 {
		t.Errorf("down flow still achieves %.1f Mbps", a.Achieved())
	}
	if b.Achieved() < 75 {
		t.Errorf("survivor should absorb the freed capacity, achieves %.1f Mbps", b.Achieved())
	}
}

func TestImpairmentCapClampsFlow(t *testing.T) {
	l := MustNew(Config{CapacityMbps: 100, RTT: 40 * time.Millisecond}, 1)
	f := l.NewFlow()
	f.SetOffered(90)
	f.SetImpairment(func(time.Duration) Impairment { return Impairment{CapMbps: 10} })
	l.RunFor(200 * time.Millisecond)
	if f.Achieved() > 10.001 {
		t.Errorf("capped flow achieves %.2f Mbps, want ≤10", f.Achieved())
	}
}

func TestImpairmentBurstLossDropsTicksDeterministically(t *testing.T) {
	run := func() (delivered float64, lossTicks int) {
		l := MustNew(Config{CapacityMbps: 100, RTT: 40 * time.Millisecond}, 7)
		f := l.NewFlow()
		f.SetOffered(50)
		f.SetImpairment(func(time.Duration) Impairment { return Impairment{LossProb: 0.5} })
		for i := 0; i < 200; i++ {
			l.Advance()
			if f.LossSignal() {
				lossTicks++
			}
		}
		return f.DeliveredBytes(), lossTicks
	}
	d1, t1 := run()
	d2, t2 := run()
	if d1 != d2 || t1 != t2 {
		t.Fatalf("seed-fixed burst loss not deterministic: (%.0f,%d) vs (%.0f,%d)", d1, t1, d2, t2)
	}
	if t1 < 60 || t1 > 140 {
		t.Errorf("loss ticks = %d of 200 at p=0.5, implausible", t1)
	}
	// Roughly half the ticks deliver: delivered ≈ 50 Mbps × 2 s × ~0.5.
	full := 50.0 * 1e6 * 2 / 8
	frac := d1 / full
	if frac < 0.3 || frac > 0.7 {
		t.Errorf("delivered fraction under 50%% burst loss = %.2f", frac)
	}
}

func TestNoImpairmentMatchesBaselineExactly(t *testing.T) {
	run := func(hook bool) float64 {
		l := MustNew(Config{CapacityMbps: 80, RTT: 40 * time.Millisecond, Fluctuation: 0.05, LossRate: 0.01}, 3)
		f := l.NewFlow()
		f.SetOffered(60)
		if hook {
			f.SetImpairment(func(time.Duration) Impairment { return Impairment{} })
		}
		l.RunFor(time.Second)
		return f.DeliveredBytes()
	}
	if a, b := run(false), run(true); a != b {
		t.Errorf("a zero-impairment hook changed delivery: %.0f vs %.0f", a, b)
	}
}

// TestStateHookDrivesLink pins the StateHook contract: the hook's capacity
// bounds what a saturating flow achieves, its RTT shows through BaseRTT, and
// the link holds the active profile state by name.
func TestStateHookDrivesLink(t *testing.T) {
	good := LinkState{Name: "good", CapacityMbps: 80, RTT: 30 * time.Millisecond}
	fade := LinkState{Name: "fade", CapacityMbps: 10, RTT: 90 * time.Millisecond}
	hook := func(at time.Duration) LinkState {
		if at < 500*time.Millisecond {
			return good
		}
		return fade
	}
	l := MustNew(Config{StateHook: hook}, 7)
	if st, ok := l.state, l.haveState; !ok || st.Name != "good" {
		t.Fatalf("initial state = %+v ok=%v, want good", st, ok)
	}
	if got := l.BaseRTT(); got != good.RTT {
		t.Errorf("initial BaseRTT = %v, want %v", got, good.RTT)
	}

	f := l.NewFlow()
	f.SetOffered(1000)
	l.RunFor(500 * time.Millisecond)
	goodBytes := f.DeliveredBytes()
	wantGood := 80e6 * 0.5 / 8
	if math.Abs(goodBytes-wantGood) > wantGood*0.05 {
		t.Errorf("good-state delivery = %.0f bytes, want ≈%.0f", goodBytes, wantGood)
	}

	l.RunFor(500 * time.Millisecond)
	if st, ok := l.state, l.haveState; !ok || st.Name != "fade" {
		t.Fatalf("state after 1s = %+v ok=%v, want fade", st, ok)
	}
	if got := l.BaseRTT(); got != fade.RTT {
		t.Errorf("fade BaseRTT = %v, want %v", got, fade.RTT)
	}
	fadeBytes := f.DeliveredBytes() - goodBytes
	wantFade := 10e6 * 0.5 / 8
	if math.Abs(fadeBytes-wantFade) > wantFade*0.10 {
		t.Errorf("fade-state delivery = %.0f bytes, want ≈%.0f", fadeBytes, wantFade)
	}
}
