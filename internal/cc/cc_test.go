package cc

import (
	"math"
	"testing"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/linksim"
)

func mobileLink(t *testing.T, capMbps float64) *linksim.Link {
	t.Helper()
	return linksim.MustNew(linksim.Config{
		CapacityMbps: capMbps,
		RTT:          40 * time.Millisecond,
		Fluctuation:  0.02,
	}, 1)
}

func ramp(t *testing.T, mk func() Algorithm, capMbps float64) RampResult {
	t.Helper()
	l := mobileLink(t, capMbps)
	return MeasureRamp(l, mk())
}

func TestAllAlgorithmsReachCapacity(t *testing.T) {
	algs := map[string]func() Algorithm{
		"reno":  func() Algorithm { return NewReno() },
		"cubic": func() Algorithm { return NewCubic() },
		"bbr":   func() Algorithm { return NewBBR() },
	}
	for name, mk := range algs {
		for _, capMbps := range []float64{50, 200, 800} {
			r := ramp(t, mk, capMbps)
			if !r.Reached {
				t.Errorf("%s did not reach 90%% of %g Mbps", name, capMbps)
			}
		}
	}
}

// TestFig17Ordering checks the headline property of Figure 17: CUBIC incurs
// the longest slow-start/ramp time, BBR the shortest, Reno in between — at
// every bandwidth bucket.
func TestFig17Ordering(t *testing.T) {
	for _, capMbps := range []float64{100, 300, 500, 900} {
		cubic := ramp(t, func() Algorithm { return NewCubic() }, capMbps)
		reno := ramp(t, func() Algorithm { return NewReno() }, capMbps)
		bbr := ramp(t, func() Algorithm { return NewBBR() }, capMbps)
		if !(cubic.RampTime > reno.RampTime && reno.RampTime > bbr.RampTime) {
			t.Errorf("cap=%g: ordering violated: cubic=%v reno=%v bbr=%v",
				capMbps, cubic.RampTime, reno.RampTime, bbr.RampTime)
		}
	}
}

// TestFig17GrowsWithBandwidth checks that ramp time increases with access
// bandwidth for every algorithm, the other axis of Figure 17.
func TestFig17GrowsWithBandwidth(t *testing.T) {
	algs := map[string]func() Algorithm{
		"reno":  func() Algorithm { return NewReno() },
		"cubic": func() Algorithm { return NewCubic() },
		"bbr":   func() Algorithm { return NewBBR() },
	}
	for name, mk := range algs {
		prev := time.Duration(0)
		for _, capMbps := range []float64{100, 300, 600, 1000} {
			r := ramp(t, mk, capMbps)
			if r.RampTime <= prev {
				t.Errorf("%s: ramp time not increasing at %g Mbps (%v ≤ %v)",
					name, capMbps, r.RampTime, prev)
			}
			prev = r.RampTime
		}
	}
}

// TestBBRCalibration pins the field calibration the package documents: ≈2 s
// at 100 Mbps and ≈4 s at 1 Gbps (paper §5.1).
func TestBBRCalibration(t *testing.T) {
	at100 := ramp(t, func() Algorithm { return NewBBR() }, 100).RampTime.Seconds()
	at1000 := ramp(t, func() Algorithm { return NewBBR() }, 1000).RampTime.Seconds()
	if at100 < 1 || at100 > 3 {
		t.Errorf("BBR ramp @100 Mbps = %.2fs, want ≈2 s", at100)
	}
	if at1000 < 2.5 || at1000 > 5.5 {
		t.Errorf("BBR ramp @1 Gbps = %.2fs, want ≈4 s", at1000)
	}
}

func TestRenoHalvesOnLoss(t *testing.T) {
	r := NewReno()
	fb := Feedback{Achieved: 100, RTT: 40 * time.Millisecond}
	var rate float64
	for i := 0; i < 200; i++ {
		rate = r.Tick(fb)
	}
	lossRate := r.Tick(Feedback{Achieved: 100, Loss: true, RTT: 40 * time.Millisecond})
	if lossRate >= rate {
		t.Errorf("rate did not drop on loss: %g → %g", rate, lossRate)
	}
	if r.InSlowStart() {
		t.Error("still in slow start after loss")
	}
	if lossRate < rate*0.45 || lossRate > rate*0.55 {
		t.Errorf("loss response %g not ≈ half of %g", lossRate, rate)
	}
}

func TestCubicBetaDecrease(t *testing.T) {
	c := NewCubic()
	fb := Feedback{Achieved: 100, RTT: 40 * time.Millisecond}
	var rate float64
	for i := 0; i < 200; i++ {
		rate = c.Tick(fb)
	}
	lossRate := c.Tick(Feedback{Achieved: 100, Loss: true, RTT: 40 * time.Millisecond})
	if lossRate < rate*0.65 || lossRate > rate*0.75 {
		t.Errorf("CUBIC loss response %g not ≈ 0.7 × %g", lossRate, rate)
	}
}

func TestCubicHyStartExitsOnDelay(t *testing.T) {
	c := NewCubic()
	base := 40 * time.Millisecond
	c.Tick(Feedback{Achieved: 50, RTT: base})
	if !c.InSlowStart() {
		t.Fatal("should start in slow start")
	}
	// Inflate RTT well past minRTT + minRTT/8.
	c.Tick(Feedback{Achieved: 50, RTT: base * 2})
	if c.InSlowStart() {
		t.Error("HyStart did not exit slow start on RTT inflation")
	}
}

func TestCubicRecoversAfterLoss(t *testing.T) {
	// After a loss, the cubic window function must grow the rate back.
	c := NewCubic()
	fb := Feedback{Achieved: 200, RTT: 40 * time.Millisecond}
	for i := 0; i < 300; i++ {
		c.Tick(fb)
	}
	after := c.Tick(Feedback{Achieved: 200, Loss: true, RTT: 40 * time.Millisecond})
	var later float64
	for i := 0; i < 500; i++ {
		later = c.Tick(fb)
	}
	if later <= after {
		t.Errorf("cubic did not regrow after loss: %g → %g", after, later)
	}
}

func TestBBRExitsStartupOnPlateau(t *testing.T) {
	l := mobileLink(t, 100)
	b := NewBBR()
	f := l.NewFlow()
	f.SetOffered(InitialRate(l.RTT()))
	for i := 0; i < 1500 && b.InSlowStart(); i++ {
		l.Advance()
		f.SetOffered(b.Tick(Feedback{Achieved: f.Achieved(), Loss: f.LossSignal(), RTT: l.RTT()}))
	}
	if b.InSlowStart() {
		t.Error("BBR never exited Startup on a fixed-capacity link")
	}
}

func TestBBRSteadyStateNearCapacity(t *testing.T) {
	l := mobileLink(t, 200)
	b := NewBBR()
	f := l.NewFlow()
	f.SetOffered(InitialRate(l.RTT()))
	step := func() {
		l.Advance()
		f.SetOffered(b.Tick(Feedback{Achieved: f.Achieved(), Loss: f.LossSignal(), RTT: l.RTT()}))
	}
	// Run well past Startup.
	for i := 0; i < 3000; i++ {
		step()
	}
	var sum float64
	n := 0
	for i := 0; i < 500; i++ {
		step()
		sum += f.Achieved()
		n++
	}
	mean := sum / float64(n)
	if mean < 170 || mean > 205 {
		t.Errorf("BBR steady-state mean = %g on a 200 Mbps link", mean)
	}
}

func TestSenderInitialOffer(t *testing.T) {
	l := mobileLink(t, 100)
	f := l.NewFlow()
	f.SetOffered(InitialRate(f.RTT()))
	want := windowRate(InitialWindow, f.RTT())
	// The initial window is far below capacity, so the link delivers all of
	// the offered rate.
	l.Advance()
	if f.Achieved() <= 0 {
		t.Error("sender did not install an initial offered rate")
	}
	if math.Abs(f.Achieved()-want) > 1e-9 {
		t.Errorf("initial offer = %g, want %g", f.Achieved(), want)
	}
}

func TestMeasureRampDeadline(t *testing.T) {
	// A flow that cannot reach the target must report not-reached at the
	// deadline rather than hanging: at a 2 s RTT one growth round outlasts
	// the deadline.
	l := linksim.MustNew(linksim.Config{CapacityMbps: 100, RTT: 2 * time.Second}, 1)
	r := MeasureRamp(l, NewCubic())
	if r.Reached {
		t.Errorf("cannot have ramped to 100 Mbps at a 2 s RTT in %v", rampDeadline)
	}
	if r.RampTime != rampDeadline {
		t.Errorf("RampTime = %v, want the deadline", r.RampTime)
	}
}

func TestNames(t *testing.T) {
	if NewReno().Name() != "reno" || NewCubic().Name() != "cubic" || NewBBR().Name() != "bbr" {
		t.Error("algorithm names wrong")
	}
}

func TestWindowRateZeroRTT(t *testing.T) {
	if windowRate(10, 0) != 0 {
		t.Error("zero RTT should yield zero rate, not Inf")
	}
}
