// Package gmm implements the multi-modal Gaussian bandwidth model of the
// paper's Equation (1):
//
//	P(X) = Σᵢ wᵢ · N(X | μᵢ, σᵢ)
//
// The paper observes (§5.1, Figures 16/18/19) that for a given access
// technology the population of access bandwidths follows a mixture of a small
// number of Gaussian modes — produced by technology bandwidth limits,
// infrastructure status, and ISPs' data plans — and that this distribution is
// stable over a moderate time scale. Swiftest exploits the model twice:
// the most significant mode seeds the initial probing data rate, and the
// ordered list of larger modes drives rate escalation when the client's
// access bandwidth is not yet saturated.
//
// The package provides sampling, mode queries, and fitting from observed
// bandwidths via the EM algorithm with BIC model selection, so a deployment
// can periodically refresh its models from recent test results exactly as
// §5.1 prescribes.
package gmm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Component is one Gaussian mode of a mixture.
type Component struct {
	Weight float64 // mixing weight wᵢ, Σ = 1
	Mu     float64 // mode location μᵢ (Mbps in this codebase)
	Sigma  float64 // spread σᵢ (> 0)
}

// Model is a multi-modal Gaussian distribution: a weighted set of Components.
// Components are kept sorted by ascending Mu.
type Model struct {
	components []Component
}

// New returns a Model with the given components, normalising weights to sum
// to one and sorting components by Mu. It returns an error if no component is
// given, any sigma is non-positive, or any weight is negative.
func New(comps ...Component) (*Model, error) {
	if len(comps) == 0 {
		return nil, errors.New("gmm: model needs at least one component")
	}
	var wsum float64
	for _, c := range comps {
		if math.IsNaN(c.Mu) || math.IsInf(c.Mu, 0) {
			return nil, fmt.Errorf("gmm: component mu %g must be finite", c.Mu)
		}
		if !(c.Sigma > 0) || math.IsInf(c.Sigma, 1) {
			return nil, fmt.Errorf("gmm: component sigma %g must be positive and finite", c.Sigma)
		}
		if !(c.Weight >= 0) || math.IsInf(c.Weight, 1) {
			return nil, fmt.Errorf("gmm: component weight %g must be non-negative and finite", c.Weight)
		}
		wsum += c.Weight
	}
	if wsum <= 0 {
		return nil, errors.New("gmm: component weights sum to zero")
	}
	if math.IsInf(wsum, 1) {
		return nil, errors.New("gmm: component weights overflow")
	}
	cs := make([]Component, len(comps))
	copy(cs, comps)
	for i := range cs {
		cs[i].Weight /= wsum
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].Mu < cs[j].Mu })
	return &Model{components: cs}, nil
}

// MustNew is New, panicking on error; intended for statically known models.
func MustNew(comps ...Component) *Model {
	m, err := New(comps...)
	if err != nil {
		panic(err)
	}
	return m
}

// Components returns a copy of the mixture components sorted by ascending Mu.
func (m *Model) Components() []Component {
	return append([]Component(nil), m.components...)
}

// K reports the number of mixture components.
func (m *Model) K() int { return len(m.components) }

func gaussPDF(x, mu, sigma float64) float64 {
	u := (x - mu) / sigma
	return math.Exp(-0.5*u*u) / (sigma * math.Sqrt(2*math.Pi))
}

// Mean reports the mixture mean Σ wᵢ·μᵢ.
func (m *Model) Mean() float64 {
	var mu float64
	for _, c := range m.components {
		mu += c.Weight * c.Mu
	}
	return mu
}

// Sample draws one value from the mixture using rng. Draws are truncated at
// zero: access bandwidth is never negative, so negative tail draws are
// re-drawn (and finally clamped) rather than returned.
func (m *Model) Sample(rng *rand.Rand) float64 {
	c := m.pick(rng)
	for attempt := 0; attempt < 8; attempt++ {
		x := rng.NormFloat64()*c.Sigma + c.Mu
		if x >= 0 {
			return x
		}
	}
	return 0
}

func (m *Model) pick(rng *rand.Rand) Component {
	u := rng.Float64()
	var acc float64
	for _, c := range m.components {
		acc += c.Weight
		if u <= acc {
			return c
		}
	}
	return m.components[len(m.components)-1]
}

// Mode is a mixture peak exposed to the probing logic.
type Mode struct {
	Rate   float64 // the modal bandwidth μᵢ (Mbps)
	Weight float64 // its mixing weight
}

// MostProbableMode returns the mode with the largest weight — the paper's
// "most significant mode", used as the initial probing data rate. Ties break
// toward the lower rate so the initial probe is conservative.
func (m *Model) MostProbableMode() Mode {
	best := m.components[0]
	for _, c := range m.components[1:] {
		if c.Weight > best.Weight {
			best = c
		}
	}
	return Mode{Rate: best.Mu, Weight: best.Weight}
}

// NextLargerMode returns the most probable mode whose rate is strictly above
// rate, implementing §5.1's escalation rule ("we use the most probable one
// among these larger modal bandwidth values as the next probing data rate").
// ok is false when no larger mode exists.
func (m *Model) NextLargerMode(rate float64) (mode Mode, ok bool) {
	var best Component
	for _, c := range m.components {
		if c.Mu > rate && (!ok || c.Weight > best.Weight) {
			best = c
			ok = true
		}
	}
	if !ok {
		return Mode{}, false
	}
	return Mode{Rate: best.Mu, Weight: best.Weight}, true
}

// String renders the model compactly, e.g. "GMM{0.3·N(100,20) 0.7·N(300,40)}".
func (m *Model) String() string {
	s := "GMM{"
	for i, c := range m.components {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.2f·N(%.0f,%.0f)", c.Weight, c.Mu, c.Sigma)
	}
	return s + "}"
}
