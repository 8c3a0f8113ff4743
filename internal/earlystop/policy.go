package earlystop

import (
	"time"

	"github.com/mobilebandwidth/swiftest/internal/core"
	"github.com/mobilebandwidth/swiftest/internal/estimate"
	"github.com/mobilebandwidth/swiftest/internal/stats"
)

// Policy plugs a trained Model into the engine as a core.TerminationPolicy.
// After every sample it first applies the §5.1 crossing rule: a
// test the crossing rule would stop, stops — earlystop never degrades the
// fixed rule. Otherwise, once at least Model.MinSamples samples are in, the
// model scores the prefix; a score at or above Model.Threshold stops the
// test early, reporting the trailing-window mean (the same statistic a
// crossing stop reports).
//
// Policy is stateless — Decide is a pure function of the prefix — so one
// value is safe to share across concurrent tests, and reruns are
// byte-identical.
type Policy struct {
	// Model scores prefixes; nil selects the embedded Default model.
	Model *Model
}

// NewPolicy returns a Policy over model (nil selects Default()).
func NewPolicy(model *Model) Policy {
	if model == nil {
		model = Default()
	}
	return Policy{Model: model}
}

// Name implements core.TerminationPolicy.
func (Policy) Name() string { return "earlystop" }

// Decide implements core.TerminationPolicy.
func (p Policy) Decide(samples []float64, traj []estimate.TrajectoryPoint, elapsed time.Duration) core.Decision {
	d := core.CrossingPolicy{}.Decide(samples, traj, elapsed)
	if d.Stop {
		return d // the crossing rule already converged — not an early stop
	}
	m := p.Model
	if m == nil {
		m = Default()
	}
	if len(samples) < m.MinSamples {
		return d
	}
	var f [NFeatures]float64
	Featurize(samples, traj, &f)
	score := m.Predict(&f)
	if score < m.Threshold {
		return d
	}
	return core.Decision{
		Stop:      true,
		Estimate:  stats.Mean(estimate.Tail(samples)),
		Early:     true,
		Checked:   true,
		Check:     score,
		Threshold: m.Threshold,
		Note:      "model",
	}
}
