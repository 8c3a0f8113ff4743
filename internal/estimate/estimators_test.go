package estimate

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBTSAppEstimateTrimsNoise(t *testing.T) {
	// 200 samples: 50 ramp-up noise samples then 150 at the true rate.
	samples := make([]float64, 0, 200)
	for i := 0; i < 50; i++ {
		samples = append(samples, float64(i)) // slow start noise 0..49
	}
	for i := 0; i < 150; i++ {
		samples = append(samples, 100)
	}
	got := BTSAppEstimate(samples)
	// The 5 lowest groups (the ramp) are discarded, so the estimate should
	// land on the true rate.
	if math.Abs(got-100) > 1 {
		t.Errorf("estimate = %g, want ≈100 after trimming ramp noise", got)
	}
}

func TestBTSAppEstimateEdgeCases(t *testing.T) {
	if BTSAppEstimate(nil) != 0 {
		t.Error("empty input should estimate 0")
	}
	if got := BTSAppEstimate([]float64{50, 60}); math.Abs(got-55) > 1e-9 {
		t.Errorf("short input = %g, want plain mean 55", got)
	}
}

func TestCrucialIntervalFindsDensestCluster(t *testing.T) {
	var samples []float64
	// Sparse ramp plus a dense plateau at ≈300.
	for i := 0; i < 10; i++ {
		samples = append(samples, float64(i*25)) // 0..225 spread out
	}
	for i := 0; i < 50; i++ {
		samples = append(samples, 300+float64(i%3)) // dense at 300–302
	}
	got := crucialIntervalRef(samples)
	if math.Abs(got-301) > 5 {
		t.Errorf("crucial interval = %g, want ≈301", got)
	}
}

func TestCrucialIntervalDegenerate(t *testing.T) {
	if crucialIntervalRef(nil) != 0 {
		t.Error("empty input should estimate 0")
	}
	if crucialIntervalRef([]float64{42}) != 42 {
		t.Error("single sample should be returned")
	}
	if got := crucialIntervalRef([]float64{7, 7, 7}); got != 7 {
		t.Errorf("identical samples = %g, want 7", got)
	}
	// No score is a number, so no interval wins: the mean of all, as the
	// full scan gave.
	if got := crucialIntervalRef([]float64{3, math.NaN(), 5}); !math.IsNaN(got) {
		t.Errorf("NaN sample = %g, want NaN", got)
	}
}

// TestEstimatorsWithinRange property-checks that every estimator returns a
// value within the sample range.
func TestEstimatorsWithinRange(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, x := range raw {
			x = math.Abs(math.Mod(x, 1000))
			xs[i] = x
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		for _, est := range []func([]float64) float64{BTSAppEstimate, crucialIntervalRef} {
			v := est(xs)
			if v < lo-1e-9 || v > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}

func TestStable(t *testing.T) {
	if !Stable([]float64{100, 101, 102}, 0.03) {
		t.Error("2% spread should be stable at 3%")
	}
	if Stable([]float64{100, 110}, 0.03) {
		t.Error("10% spread should not be stable at 3%")
	}
	if Stable(nil, 0.03) {
		t.Error("empty window should not be stable")
	}
	if Stable([]float64{0, 0}, 0.03) {
		t.Error("all-zero window should not be stable")
	}
}
