package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSampleQuantiles(t *testing.T) {
	s := NewSample([]float64{5, 1, 4, 2, 3})
	if s.Median() != 3 {
		t.Errorf("Median = %g, want 3", s.Median())
	}
	if s.Quantile(0) != 1 || s.Quantile(1) != 5 {
		t.Errorf("Quantile extremes = %g/%g, want 1/5", s.Quantile(0), s.Quantile(1))
	}
	if got := s.Quantile(0.25); !almostEqual(got, 2, 1e-12) {
		t.Errorf("Q25 = %g, want 2", got)
	}
}

func TestSampleEmpty(t *testing.T) {
	s := &Sample{}
	if s.Median() != 0 || s.Mean() != 0 || s.Max() != 0 {
		t.Error("empty sample stats not zero")
	}
	if s.CDF() != nil {
		t.Error("empty sample CDF not nil")
	}
}

func TestFractions(t *testing.T) {
	s := NewSample([]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	if got := s.FractionBelow(35); !almostEqual(got, 0.3, 1e-12) {
		t.Errorf("FractionBelow(35) = %g, want 0.3", got)
	}
	if got := s.FractionAbove(80); !almostEqual(got, 0.2, 1e-12) {
		t.Errorf("FractionAbove(80) = %g, want 0.2", got)
	}
	if got := s.MeanAbove(80); !almostEqual(got, 95, 1e-12) {
		t.Errorf("MeanAbove(80) = %g, want 95", got)
	}
}

func TestCDFMonotonic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = rng.Float64() * 1000
	}
	s := NewSample(xs)
	cdf := s.CDF()
	for i := 1; i < len(cdf); i++ {
		if cdf[i].X < cdf[i-1].X {
			t.Fatalf("CDF X not monotonic at %d: %v < %v", i, cdf[i].X, cdf[i-1].X)
		}
		if cdf[i].F <= cdf[i-1].F {
			t.Fatalf("CDF F not increasing at %d", i)
		}
	}
	if last := cdf[len(cdf)-1]; last.F != 1 || last.X != s.Max() {
		t.Errorf("CDF terminus = %+v, want F=1 X=max", last)
	}
}

// TestQuantileWithinRange is a property test: quantiles always lie within the
// sample range, and the quantile function is monotone in q.
func TestQuantileWithinRange(t *testing.T) {
	f := func(xs []float64, q float64) bool {
		if len(xs) == 0 {
			return true
		}
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
		}
		q = math.Abs(math.Mod(q, 1))
		s := NewSample(xs)
		v := s.Quantile(q)
		return v >= slices.Min(xs) && v <= s.Max() && s.Quantile(q) <= s.Quantile(1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestKDEIntegratesToRoughlyOne(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = rng.NormFloat64()*20 + 100
	}
	s := NewSample(xs)
	pts := s.KDE(200)
	var integral float64
	for i := 1; i < len(pts); i++ {
		dx := pts[i].X - pts[i-1].X
		integral += 0.5 * (pts[i].Y + pts[i-1].Y) * dx
	}
	if integral < 0.95 || integral > 1.05 {
		t.Errorf("KDE integral = %g, want ≈1", integral)
	}
}

func TestKDEPeakNearMean(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xs := make([]float64, 3000)
	for i := range xs {
		xs[i] = rng.NormFloat64()*10 + 300
	}
	s := NewSample(xs)
	pts := s.KDE(400)
	best := pts[0]
	for _, p := range pts {
		if p.Y > best.Y {
			best = p
		}
	}
	if math.Abs(best.X-300) > 10 {
		t.Errorf("KDE peak at %g, want ≈300", best.X)
	}
}

func TestNewSampleCopies(t *testing.T) {
	src := []float64{3, 1, 2}
	s := NewSample(src)
	_ = s.Median() // forces a sort of the internal slice
	if src[0] != 3 {
		t.Error("NewSample mutated the caller's slice")
	}
}

func TestMeanAndSpread(t *testing.T) {
	if Mean(nil) != 0 || Spread(nil) != 0 {
		t.Error("Mean/Spread of an empty slice should be 0")
	}
	xs := []float64{0.1, 0.2, 0.3, 97, 100}
	// One left-to-right sum and one division: callers that used to carry
	// their own copy compare results with ==.
	var sum float64
	for _, x := range xs {
		sum += x
	}
	if got, want := Mean(xs), sum/float64(len(xs)); got != want {
		t.Errorf("Mean = %v, want %v", got, want)
	}
	lo, hi := xs[0], xs[4]
	if got, want := Spread(xs), (hi-lo)/hi; got != want {
		t.Errorf("Spread = %v, want %v", got, want)
	}
	if got := Spread([]float64{0, 0}); got != 0 {
		t.Errorf("Spread of an all-zero window = %v, want 0", got)
	}
}
