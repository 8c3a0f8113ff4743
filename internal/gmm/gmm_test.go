package gmm

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

func bimodal(t *testing.T) *Model {
	t.Helper()
	m, err := New(
		Component{Weight: 0.3, Mu: 100, Sigma: 15},
		Component{Weight: 0.7, Mu: 300, Sigma: 40},
	)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name  string
		comps []Component
	}{
		{"empty", nil},
		{"zero sigma", []Component{{Weight: 1, Mu: 10, Sigma: 0}}},
		{"negative weight", []Component{{Weight: -1, Mu: 10, Sigma: 1}}},
		{"all zero weights", []Component{{Weight: 0, Mu: 10, Sigma: 1}}},
		{"NaN mu", []Component{{Weight: 1, Mu: math.NaN(), Sigma: 1}}},
		{"+Inf mu", []Component{{Weight: 1, Mu: math.Inf(1), Sigma: 1}}},
		{"-Inf mu", []Component{{Weight: 1, Mu: math.Inf(-1), Sigma: 1}}},
		{"NaN sigma", []Component{{Weight: 1, Mu: 10, Sigma: math.NaN()}}},
		{"+Inf sigma", []Component{{Weight: 1, Mu: 10, Sigma: math.Inf(1)}}},
		{"NaN weight", []Component{{Weight: math.NaN(), Mu: 10, Sigma: 1}}},
		{"+Inf weight", []Component{{Weight: math.Inf(1), Mu: 10, Sigma: 1}}},
		{"overflowing weights", []Component{{Weight: math.MaxFloat64, Mu: 10, Sigma: 1}, {Weight: math.MaxFloat64, Mu: 20, Sigma: 1}}},
	}
	for _, tc := range cases {
		if _, err := New(tc.comps...); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestNewNormalizesAndSorts(t *testing.T) {
	m := MustNew(
		Component{Weight: 2, Mu: 300, Sigma: 10},
		Component{Weight: 6, Mu: 100, Sigma: 10},
	)
	cs := m.Components()
	if cs[0].Mu != 100 || cs[1].Mu != 300 {
		t.Fatalf("components not sorted: %+v", cs)
	}
	if math.Abs(cs[0].Weight-0.75) > 1e-12 || math.Abs(cs[1].Weight-0.25) > 1e-12 {
		t.Errorf("weights not normalised: %+v", cs)
	}
}

func TestPDFIntegratesToOne(t *testing.T) {
	m := bimodal(t)
	var integral float64
	const lo, hi, n = -200.0, 800.0, 20000
	dx := (hi - lo) / n
	for i := 0; i < n; i++ {
		x := lo + (float64(i)+0.5)*dx
		for _, c := range m.Components() {
			integral += c.Weight * gaussPDF(x, c.Mu, c.Sigma) * dx
		}
	}
	if math.Abs(integral-1) > 1e-6 {
		t.Errorf("PDF integral = %g, want 1", integral)
	}
}

func TestMean(t *testing.T) {
	m := bimodal(t)
	want := 0.3*100 + 0.7*300
	if got := m.Mean(); math.Abs(got-want) > 1e-9 {
		t.Errorf("Mean = %g, want %g", got, want)
	}
}

func TestSampleMoments(t *testing.T) {
	m := bimodal(t)
	rng := rand.New(rand.NewSource(42))
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += m.Sample(rng)
	}
	got := sum / n
	if math.Abs(got-m.Mean()) > 2 {
		t.Errorf("sample mean = %g, want ≈%g", got, m.Mean())
	}
}

func TestSampleNonNegative(t *testing.T) {
	// A mode close to zero would produce negative draws without truncation.
	m := MustNew(Component{Weight: 1, Mu: 5, Sigma: 20})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		if x := m.Sample(rng); x < 0 {
			t.Fatalf("negative sample %g", x)
		}
	}
}

func TestModeQueries(t *testing.T) {
	m := MustNew(
		Component{Weight: 0.2, Mu: 100, Sigma: 10},
		Component{Weight: 0.5, Mu: 300, Sigma: 10},
		Component{Weight: 0.3, Mu: 500, Sigma: 10},
	)
	if got := m.MostProbableMode(); got.Rate != 300 {
		t.Errorf("MostProbableMode = %+v, want rate 300", got)
	}
	if got, ok := m.NextLargerMode(300); !ok || got.Rate != 500 {
		t.Errorf("NextLargerMode(300) = %+v/%v, want 500", got, ok)
	}
	if got, ok := m.NextLargerMode(100); !ok || got.Rate != 300 {
		t.Errorf("NextLargerMode(100) = %+v/%v, want 300 (most probable larger)", got, ok)
	}
	if _, ok := m.NextLargerMode(500); ok {
		t.Error("NextLargerMode above max should report !ok")
	}
}

func TestFitRecoverWellSeparated(t *testing.T) {
	truth := MustNew(
		Component{Weight: 0.4, Mu: 100, Sigma: 12},
		Component{Weight: 0.6, Mu: 500, Sigma: 30},
	)
	rng := rand.New(rand.NewSource(9))
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = truth.Sample(rng)
	}
	m, _, err := Fit(xs, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	cs := m.Components()
	if math.Abs(cs[0].Mu-100) > 5 || math.Abs(cs[1].Mu-500) > 10 {
		t.Errorf("recovered means %g/%g, want ≈100/500", cs[0].Mu, cs[1].Mu)
	}
	if math.Abs(cs[0].Weight-0.4) > 0.05 {
		t.Errorf("recovered weight %g, want ≈0.4", cs[0].Weight)
	}
}

func TestFitErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, _, err := Fit([]float64{1, 2, 3}, 0, rng); err == nil {
		t.Error("k=0 should error")
	}
	if _, _, err := Fit([]float64{1, 2, 3}, 5, rng); err == nil {
		t.Error("too few samples should error")
	}
}

func TestFitBICPrefersTwoModes(t *testing.T) {
	truth := MustNew(
		Component{Weight: 0.5, Mu: 100, Sigma: 10},
		Component{Weight: 0.5, Mu: 600, Sigma: 20},
	)
	rng := rand.New(rand.NewSource(77))
	xs := make([]float64, 3000)
	for i := range xs {
		xs[i] = truth.Sample(rng)
	}
	m, k, err := FitBIC(xs, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	if k < 2 {
		t.Errorf("BIC chose k=%d, want ≥2 for clearly bimodal data", k)
	}
	// The two dominant modes should bracket the truth.
	top := m.MostProbableMode()
	if top.Rate > 700 {
		t.Errorf("dominant mode %g implausible", top.Rate)
	}
}

func TestFitBICSingleMode(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = rng.NormFloat64()*10 + 200
	}
	_, k, err := FitBIC(xs, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	if k != 1 {
		t.Errorf("BIC chose k=%d for unimodal data, want 1", k)
	}
}

func TestStringRendering(t *testing.T) {
	m := bimodal(t)
	if got := m.String(); got == "" || got[:4] != "GMM{" {
		t.Errorf("String = %q", got)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	in := bimodal(t)
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Model
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	ci, co := in.Components(), out.Components()
	if len(ci) != len(co) {
		t.Fatalf("component count changed: %d → %d", len(ci), len(co))
	}
	for i := range ci {
		if ci[i] != co[i] {
			t.Errorf("component %d: %+v → %+v", i, ci[i], co[i])
		}
	}
}

func TestJSONRejectsInvalid(t *testing.T) {
	cases := []string{
		`not json`,
		`{"version":99,"components":[{"weight":1,"mu":10,"sigma":1}]}`,
		`{"version":1,"components":[]}`,
		`{"version":1,"components":[{"weight":1,"mu":10,"sigma":0}]}`,
		`{"version":1,"components":[{"weight":-1,"mu":10,"sigma":1}]}`,
	}
	for _, c := range cases {
		var m Model
		if err := json.Unmarshal([]byte(c), &m); err == nil {
			t.Errorf("accepted %q", c)
		}
	}
}
