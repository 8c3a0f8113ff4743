package core

import (
	"fmt"
	"math/rand"
	"sync"

	"github.com/mobilebandwidth/swiftest/internal/gmm"
)

// ModelStore maintains a per-technology bandwidth model and refreshes it
// periodically from recent test results — §5.1's "by updating the
// statistical model periodically, we can leverage it to guide the selection
// of the initial data rate". The paper observes the distributions are stable
// on a moderate time scale (within a month), so a deployment feeds every
// reported result into the store and refits on a fixed cadence or on demand.
//
// The store is safe for concurrent use: servers report results from their
// handler goroutines while clients read the current model.
type ModelStore struct {
	mu     sync.Mutex
	model  *gmm.Model // guarded by mu
	window []float64  // recent results, bounded ring; guarded by mu
	next   int        // ring cursor once the window is full; guarded by mu
	rng    *rand.Rand // guarded by mu

	cfg RefreshConfig
}

// RefreshConfig parameterises a ModelStore.
type RefreshConfig struct {
	// WindowSize bounds the number of recent results retained; zero
	// selects 10 000.
	WindowSize int
	// MinResults is the number of results required before the first refit
	// replaces the seed model; zero selects 500.
	MinResults int
	// MaxModes bounds the mixture size for BIC selection; zero selects 6.
	MaxModes int
	// Seed drives EM initialisation.
	Seed int64
}

func (c RefreshConfig) withDefaults() RefreshConfig {
	if c.WindowSize <= 0 {
		c.WindowSize = 10000
	}
	if c.MinResults <= 0 {
		c.MinResults = 500
	}
	if c.MaxModes <= 0 {
		c.MaxModes = 6
	}
	return c
}

// NewModelStore returns a store seeded with an initial model (e.g. the
// calibrated technology model), which serves until enough results accumulate.
func NewModelStore(seed *gmm.Model, cfg RefreshConfig) (*ModelStore, error) {
	if seed == nil {
		return nil, fmt.Errorf("core: a seed model is required")
	}
	cfg = cfg.withDefaults()
	return &ModelStore{
		model: seed,
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}, nil
}

// Model returns the current bandwidth model. The returned model is immutable.
func (s *ModelStore) Model() *gmm.Model {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.model
}

// Report feeds one test result (Mbps) into the window. Non-positive results
// are ignored (failed tests carry no bandwidth information).
func (s *ModelStore) Report(mbps float64) {
	if mbps <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.window) < s.cfg.WindowSize {
		s.window = append(s.window, mbps)
		return
	}
	s.window[s.next] = mbps
	s.next = (s.next + 1) % s.cfg.WindowSize
}

// Results reports how many results the window currently holds.
func (s *ModelStore) Results() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.window)
}

// Refresh refits the model from the current window. It returns the new model
// and whether a refit actually happened (it does not before MinResults
// accumulate). A deployment calls it on its refresh cadence; the EM input is
// the whole window.
func (s *ModelStore) Refresh() (*gmm.Model, bool, error) {
	s.mu.Lock()
	if len(s.window) < s.cfg.MinResults {
		m := s.model
		s.mu.Unlock()
		return m, false, nil
	}
	xs := append([]float64(nil), s.window...)
	// Derive a child generator under the lock instead of sharing s.rng with
	// the (potentially slow) EM fit: concurrent Refresh calls would race on
	// the shared generator's state.
	seed := s.rng.Int63()
	maxModes := s.cfg.MaxModes
	s.mu.Unlock()
	rng := rand.New(rand.NewSource(seed))

	fitted, _, err := gmm.FitBIC(xs, maxModes, rng)
	if err != nil {
		return nil, false, fmt.Errorf("core: model refresh: %w", err)
	}

	s.mu.Lock()
	s.model = fitted
	s.mu.Unlock()
	return fitted, true, nil
}
