package earlystop

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/estimate"
)

// syntheticRows builds a linearly separable training set: low-spread
// prefixes positive, high-spread prefixes negative.
func syntheticRows(n int) []Row {
	rows := make([]Row, 0, n)
	for i := 0; i < n; i++ {
		var r Row
		r.Features[0] = float64(20+i%60) / 100
		if i%2 == 0 {
			r.Features[1] = 0.02 + 0.001*float64(i%7) // tight tail spread
			r.Features[3] = 0.01
			r.Label = true
		} else {
			r.Features[1] = 0.4 + 0.01*float64(i%7)
			r.Features[3] = 0.3
		}
		r.Prefix = 20 + i
		rows = append(rows, r)
	}
	return rows
}

func TestFeaturizeEdgeCases(t *testing.T) {
	var f [NFeatures]float64

	// Empty prefix: zero vector.
	f[2] = 99 // must be overwritten
	Featurize(nil, nil, &f)
	if f != ([NFeatures]float64{}) {
		t.Errorf("Featurize(nil) = %v, want zero vector", f)
	}

	// Single sample: finite, no NaNs, count feature set.
	Featurize([]float64{50}, nil, &f)
	if f[0] != 0.01 {
		t.Errorf("sample_count feature = %v, want 0.01", f[0])
	}
	for i, v := range f {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("feature %s = %v on single sample", FeatureNames[i], v)
		}
	}

	// All-zero samples (blackout from the first tick): everything degenerate
	// must stay finite.
	Featurize(make([]float64, 30), nil, &f)
	for i, v := range f {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("feature %s = %v on all-zero samples", FeatureNames[i], v)
		}
	}

	// A flat stream with flat RTTs classifies as a stable regime one-hot.
	samples := make([]float64, 40)
	traj := make([]estimate.TrajectoryPoint, 40)
	for i := range samples {
		samples[i] = 100
		traj[i] = estimate.TrajectoryPoint{
			At:   time.Duration(i) * 50 * time.Millisecond,
			Mbps: 100,
			RTT:  20 * time.Millisecond,
		}
	}
	Featurize(samples, traj, &f)
	if got := f[8] + f[9] + f[10] + f[11]; got != 1 {
		t.Errorf("regime one-hots sum to %v, want exactly 1 for a classified trajectory", got)
	}
	if f[11] != 1 {
		t.Errorf("flat stream classified %v, want regime_stable one-hot", f[8:])
	}
	if f[1] != 0 || f[3] != 0 {
		t.Errorf("flat stream tail_spread=%v tail_cv=%v, want 0", f[1], f[3])
	}
	if f[6] != 1 {
		t.Errorf("flat RTTs rtt_inflation = %v, want 1", f[6])
	}
}

func TestFeaturizeRisingStream(t *testing.T) {
	// A doubling-per-sample stream: positive slope, high ramp fraction.
	samples := make([]float64, 20)
	samples[0] = 1
	for i := 1; i < len(samples); i++ {
		samples[i] = samples[i-1] * 2
	}
	var f [NFeatures]float64
	Featurize(samples, nil, &f)
	if f[2] <= 0 {
		t.Errorf("slope_norm = %v on a doubling stream, want > 0", f[2])
	}
	if f[7] != 1 {
		t.Errorf("ramp_fraction = %v on a doubling stream, want 1", f[7])
	}
}

func TestTrainDeterministicArtifact(t *testing.T) {
	rows := syntheticRows(200)
	m1, err := Train(rows, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(syntheticRows(200), TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b1, err := m1.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := m2.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Error("Train+Encode on identical rows produced different artifacts")
	}

	// The fitted model separates the synthetic classes.
	var pos, neg [NFeatures]float64
	pos[0], pos[1], pos[3] = 0.4, 0.02, 0.01
	neg[0], neg[1], neg[3] = 0.4, 0.45, 0.3
	if sp, sn := m1.Predict(&pos), m1.Predict(&neg); sp <= sn {
		t.Errorf("Predict(positive)=%v not above Predict(negative)=%v", sp, sn)
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, TrainOptions{}); err == nil {
		t.Error("Train(no rows) = nil error")
	}
	oneClass := syntheticRows(10)
	for i := range oneClass {
		oneClass[i].Label = true
	}
	if _, err := Train(oneClass, TrainOptions{}); err == nil {
		t.Error("Train(single class) = nil error")
	}
	// Parse refuses a model whose threshold is outside (0,1), so Train
	// must not write one.
	for _, th := range []float64{1.5, 1, -0.5, math.NaN()} {
		if _, err := Train(syntheticRows(100), TrainOptions{Threshold: th}); err == nil {
			t.Errorf("Train(threshold %v) = nil error", th)
		}
	}
}

func TestEncodeParseRoundTrip(t *testing.T) {
	m, err := Train(syntheticRows(100), TrainOptions{Threshold: 0.7, MinSamples: 25})
	if err != nil {
		t.Fatal(err)
	}
	data, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *m {
		t.Error("Parse(Encode(m)) != m")
	}
}

func TestParseRejectsBadArtifacts(t *testing.T) {
	good, err := Default().Encode()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		mutate  func(s string) string
		wantErr string
	}{
		{"malformed json", func(s string) string { return s[:20] }, "parsing"},
		{"wrong schema", func(s string) string {
			return strings.Replace(s, ModelSchema, "swiftest-earlystop-model/v9", 1)
		}, "schema"},
		{"renamed feature", func(s string) string {
			return strings.Replace(s, "tail_spread", "tail_sprad", 1)
		}, "features"},
		{"zero std", func(s string) string {
			return strings.Replace(s, `"std": [`, `"std": [0,`, 1)
		}, "std"},
		{"threshold out of range", func(s string) string {
			return strings.Replace(s, `"threshold": 0.8`, `"threshold": 1.8`, 1)
		}, "threshold"},
		{"min_samples below window", func(s string) string {
			return strings.Replace(s, `"min_samples": 20`, `"min_samples": 3`, 1)
		}, "min_samples"},
	}
	for _, tc := range cases {
		mutated := tc.mutate(string(good))
		if mutated == string(good) {
			t.Fatalf("%s: mutation was a no-op", tc.name)
		}
		_, err := Parse([]byte(mutated))
		if err == nil {
			t.Errorf("%s: Parse accepted a corrupt artifact", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}

	// One corrupted std entry must not poison later parses of good bytes.
	if _, err := Parse(good); err != nil {
		t.Fatalf("Parse(good) after rejects: %v", err)
	}
}

func TestPredictNoAllocs(t *testing.T) {
	m := Default()
	var f [NFeatures]float64
	Featurize([]float64{10, 20, 30, 40, 50, 55, 56, 57, 58, 59, 60, 60, 60}, nil, &f)
	if allocs := testing.AllocsPerRun(100, func() {
		_ = m.Predict(&f)
	}); allocs != 0 {
		t.Errorf("Predict allocates %v times per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		samples := []float64{10, 20, 30, 40, 50, 55, 56, 57, 58, 59, 60, 60, 60}
		Featurize(samples, nil, &f)
	}); allocs != 0 {
		t.Errorf("Featurize allocates %v times per call, want 0", allocs)
	}
}

func TestPredictRange(t *testing.T) {
	m := Default()
	extreme := [NFeatures]float64{}
	for i := range extreme {
		extreme[i] = 1e9
	}
	for _, f := range []*[NFeatures]float64{{}, &extreme} {
		p := m.Predict(f)
		if p < 0 || p > 1 || math.IsNaN(p) {
			t.Errorf("Predict(%v...) = %v outside [0,1]", f[0], p)
		}
	}
}

func BenchmarkFeaturize(b *testing.B) {
	samples := make([]float64, 40)
	traj := make([]estimate.TrajectoryPoint, 40)
	for i := range samples {
		samples[i] = 80 + float64(i%7)
		traj[i] = estimate.TrajectoryPoint{
			At:   time.Duration(i) * 50 * time.Millisecond,
			Mbps: samples[i],
			RTT:  (20 + time.Duration(i%5)) * time.Millisecond,
		}
	}
	var f [NFeatures]float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Featurize(samples, traj, &f)
	}
}

func BenchmarkPredict(b *testing.B) {
	m := Default()
	var f [NFeatures]float64
	Featurize([]float64{10, 20, 30, 40, 50, 55, 56, 57, 58, 59, 60, 60, 60}, nil, &f)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = m.Predict(&f)
	}
}
