package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, x := range []float64{1, 2, 3, 4, 5} {
		s.Add(x)
	}
	if s.N() != 5 {
		t.Fatalf("N = %d, want 5", s.N())
	}
	if !almostEqual(s.Mean(), 3, 1e-12) {
		t.Errorf("Mean = %g, want 3", s.Mean())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Errorf("Min/Max = %g/%g, want 1/5", s.Min(), s.Max())
	}
	if !almostEqual(s.Variance(), 2.5, 1e-12) {
		t.Errorf("Variance = %g, want 2.5", s.Variance())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Variance() != 0 || s.N() != 0 {
		t.Errorf("empty summary not zero: %v", s.String())
	}
}

func TestSummaryMatchesSample(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var sum Summary
	sm := &Sample{}
	for i := 0; i < 1000; i++ {
		x := rng.NormFloat64()*10 + 50
		sum.Add(x)
		sm.Add(x)
	}
	if !almostEqual(sum.Mean(), sm.Mean(), 1e-9) {
		t.Errorf("Summary mean %g != Sample mean %g", sum.Mean(), sm.Mean())
	}
	if !almostEqual(sum.StdDev(), sm.StdDev(), 1e-9) {
		t.Errorf("Summary sd %g != Sample sd %g", sum.StdDev(), sm.StdDev())
	}
}

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
	if s.CDF(10) != nil {
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
	s := &Sample{}
	for i := 0; i < 500; i++ {
		s.Add(rng.Float64() * 1000)
	}
	cdf := s.CDF(50)
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

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 100, 10)
	for i := 0; i < 100; i++ {
		h.Add(float64(i))
	}
	for i, c := range h.Counts {
		if c != 10 {
			t.Errorf("bin %d count = %d, want 10", i, c)
		}
	}
	if h.Total() != 100 {
		t.Errorf("Total = %d, want 100", h.Total())
	}
	// Out-of-range values clamp.
	h.Add(-5)
	h.Add(1e9)
	if h.Counts[0] != 11 || h.Counts[9] != 11 {
		t.Errorf("clamping failed: first=%d last=%d", h.Counts[0], h.Counts[9])
	}
	if got := h.BinCenter(0); !almostEqual(got, 5, 1e-12) {
		t.Errorf("BinCenter(0) = %g, want 5", got)
	}
}

func TestHistogramDensityIntegratesToOne(t *testing.T) {
	h := NewHistogram(0, 50, 25)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10000; i++ {
		h.Add(rng.Float64() * 50)
	}
	w := 50.0 / 25
	var integral float64
	for i := range h.Counts {
		integral += h.Density(i) * w
	}
	if !almostEqual(integral, 1, 1e-9) {
		t.Errorf("density integral = %g, want 1", integral)
	}
}

func TestHistogramPanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for invalid histogram")
		}
	}()
	NewHistogram(10, 0, 5)
}

func TestKDEIntegratesToRoughlyOne(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := &Sample{}
	for i := 0; i < 2000; i++ {
		s.Add(rng.NormFloat64()*20 + 100)
	}
	pts := s.KDE(0, 200, 400, 0)
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
	s := &Sample{}
	for i := 0; i < 3000; i++ {
		s.Add(rng.NormFloat64()*10 + 300)
	}
	pts := s.KDE(200, 400, 200, 0)
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

func TestGroupBy(t *testing.T) {
	g := NewGroupBy()
	g.Add("a", 1)
	g.Add("b", 10)
	g.Add("a", 3)
	if got := g.Group("a").Mean(); !almostEqual(got, 2, 1e-12) {
		t.Errorf("group a mean = %g, want 2", got)
	}
	if got := g.Keys(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Keys = %v, want [a b]", got)
	}
	if g.Group("missing") != nil {
		t.Error("missing group should be nil")
	}
	if got := g.Counts()["b"]; got != 1 {
		t.Errorf("count b = %d, want 1", got)
	}
	if got := g.Means()["b"]; got != 10 {
		t.Errorf("mean b = %g, want 10", got)
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
