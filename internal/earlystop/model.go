package earlystop

import (
	"encoding/json"
	"fmt"
	"math"

	"github.com/mobilebandwidth/swiftest/internal/estimate"
)

// ModelSchema names the model artifact layout, carried in the artifact
// header so loaders can dispatch on it.
const ModelSchema = "swiftest-earlystop-model/v1"

// Model is a logistic-regression early-termination model over the
// NFeatures-wide vectors Featurize produces. Features are standardised
// (x − Mean) / Std before the linear score, so raw weights are comparable
// across features. The zero value is unusable; obtain models from Train,
// Parse, or Default.
type Model struct {
	// Schema is ModelSchema.
	Schema string `json:"schema"`
	// Features are the feature names in vector order (provenance; Parse
	// rejects artifacts whose names disagree with this build's featurizer).
	Features [NFeatures]string `json:"features"`
	// Mean and Std standardise each feature. Std entries are never zero
	// (constant features are stored with Std 1).
	Mean [NFeatures]float64 `json:"mean"`
	Std  [NFeatures]float64 `json:"std"`
	// Weights and Bias are the logistic coefficients over standardised
	// features.
	Weights [NFeatures]float64 `json:"weights"`
	Bias    float64            `json:"bias"`
	// Threshold is the probability above which the policy stops the test.
	Threshold float64 `json:"threshold"`
	// MinSamples is K: no stop is considered before K samples.
	MinSamples int `json:"min_samples"`
	// Tolerance is the accuracy slack versus the crossing baseline that
	// the positive label encoded during training (provenance).
	Tolerance float64 `json:"tolerance"`
}

// Predict is the model's probability that stopping now — reporting the
// trailing-window mean — lands within Tolerance of the full test's result.
// It is a pure function of the feature vector and performs no allocation.
//
// swiftvet:hotpath
func (m *Model) Predict(f *[NFeatures]float64) float64 {
	z := m.Bias
	for i := 0; i < NFeatures; i++ {
		z += m.Weights[i] * (f[i] - m.Mean[i]) / m.Std[i]
	}
	// Sigmoid, clamped so extreme scores stay finite.
	if z > 40 {
		return 1
	}
	if z < -40 {
		return 0
	}
	return 1 / (1 + math.Exp(-z))
}

// Encode renders the model as its canonical JSON artifact: indented, fixed
// field order, trailing newline. The bytes are a pure function of the model
// — training determinism plus Encode determinism gives byte-identical
// artifacts across reruns.
func (m *Model) Encode() ([]byte, error) {
	if m.Schema != ModelSchema {
		return nil, fmt.Errorf("earlystop: encoding model with schema %q, want %q",
			m.Schema, ModelSchema)
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("earlystop: encoding model: %w", err)
	}
	return append(b, '\n'), nil
}

// Parse loads a model artifact produced by Encode, validating the schema,
// the feature names against this build's featurizer, and the numeric
// fields.
func Parse(data []byte) (*Model, error) {
	var m Model
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("earlystop: parsing model artifact: %w", err)
	}
	if m.Schema != ModelSchema {
		return nil, fmt.Errorf("earlystop: model schema %q, want %q",
			m.Schema, ModelSchema)
	}
	if m.Features != FeatureNames {
		return nil, fmt.Errorf("earlystop: model features %v do not match this featurizer %v",
			m.Features, FeatureNames)
	}
	for i, s := range m.Std {
		if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
			return nil, fmt.Errorf("earlystop: model std[%d] = %g is not positive finite",
				i, s)
		}
	}
	if m.Threshold <= 0 || m.Threshold >= 1 {
		return nil, fmt.Errorf("earlystop: model threshold %g outside (0,1)",
			m.Threshold)
	}
	if m.MinSamples < estimate.Window {
		return nil, fmt.Errorf("earlystop: model min_samples %d below the %d-sample feature window",
			m.MinSamples, estimate.Window)
	}
	return &m, nil
}

// TrainOptions parameterise Train. The zero value selects the defaults
// noted per field.
type TrainOptions struct {
	// Iterations is the fixed full-batch gradient-descent step count; zero
	// selects 400. Fixed iteration counts (no convergence test) keep
	// training a pure function of the rows.
	Iterations int
	// Threshold is the stop probability threshold stored in the model;
	// zero selects 0.85, and any other value outside (0,1) is rejected.
	Threshold float64
	// MinSamples is K, stored in the model; zero selects 20.
	MinSamples int
	// Tolerance is recorded in the model as label provenance; zero
	// selects 0.10.
	Tolerance float64
}

// Train's gradient step size and its ridge penalty on the weights (not the
// bias).
const (
	learnRate = 0.5
	l2        = 1e-3
)

func (o TrainOptions) withDefaults() TrainOptions {
	if o.Iterations <= 0 {
		o.Iterations = 400
	}
	if o.Threshold == 0 {
		o.Threshold = 0.85
	}
	if o.MinSamples <= 0 {
		o.MinSamples = 20
	}
	if o.Tolerance <= 0 {
		o.Tolerance = 0.10
	}
	return o
}

// Row is one labeled training example: the feature vector of a test prefix
// and whether stopping at that prefix would have been accurate.
type Row struct {
	// Features is the Featurize output for the prefix.
	Features [NFeatures]float64 `json:"features"`
	// Label is true when stopping at the prefix deviated from the oracle
	// (the link's mean capacity over 10 s) by at most the crossing
	// baseline's deviation plus the training tolerance.
	Label bool `json:"label"`
	// Profile, FaultPlan, Run and Prefix locate the example in the replay
	// matrix (provenance only; Train ignores them).
	Profile   string `json:"profile"`
	FaultPlan string `json:"fault_plan"`
	Run       int    `json:"run"`
	Prefix    int    `json:"prefix"`
}

// Train fits a logistic-regression model to rows by full-batch gradient
// descent with a fixed iteration count. It is deterministic: the same rows
// in the same order produce bit-identical weights, so Encode yields a
// byte-identical artifact across reruns.
func Train(rows []Row, opts TrainOptions) (*Model, error) {
	opts = opts.withDefaults()
	if !(opts.Threshold > 0 && opts.Threshold < 1) {
		return nil, fmt.Errorf("earlystop: training threshold %g outside (0,1)", opts.Threshold)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("earlystop: training on zero rows")
	}
	pos := 0
	for _, r := range rows {
		if r.Label {
			pos++
		}
	}
	if pos == 0 || pos == len(rows) {
		return nil, fmt.Errorf("earlystop: training set has %d/%d positive rows — need both classes",
			pos, len(rows))
	}

	m := &Model{
		Schema:     ModelSchema,
		Features:   FeatureNames,
		Threshold:  opts.Threshold,
		MinSamples: opts.MinSamples,
		Tolerance:  opts.Tolerance,
	}

	// Standardisation parameters from the training rows; constant features
	// get Std 1 so they contribute a zero standardised value.
	n := float64(len(rows))
	for i := 0; i < NFeatures; i++ {
		var sum float64
		for _, r := range rows {
			sum += r.Features[i]
		}
		mean := sum / n
		var ss float64
		for _, r := range rows {
			d := r.Features[i] - mean
			ss += d * d
		}
		std := math.Sqrt(ss / n)
		if std <= 0 {
			std = 1
		}
		m.Mean[i], m.Std[i] = mean, std
	}

	// Standardised design matrix, built once.
	x := make([][NFeatures]float64, len(rows))
	y := make([]float64, len(rows))
	for j, r := range rows {
		for i := 0; i < NFeatures; i++ {
			x[j][i] = (r.Features[i] - m.Mean[i]) / m.Std[i]
		}
		if r.Label {
			y[j] = 1
		}
	}

	var grad [NFeatures]float64
	for it := 0; it < opts.Iterations; it++ {
		grad = [NFeatures]float64{}
		var gradBias float64
		for j := range x {
			z := m.Bias
			for i := 0; i < NFeatures; i++ {
				z += m.Weights[i] * x[j][i]
			}
			p := 1 / (1 + math.Exp(-z))
			e := p - y[j]
			for i := 0; i < NFeatures; i++ {
				grad[i] += e * x[j][i]
			}
			gradBias += e
		}
		for i := 0; i < NFeatures; i++ {
			m.Weights[i] -= learnRate * (grad[i]/n + l2*m.Weights[i])
		}
		m.Bias -= learnRate * gradBias / n
	}
	return m, nil
}
