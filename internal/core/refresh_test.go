package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/mobilebandwidth/swiftest/internal/gmm"
)

func seedModel() *gmm.Model {
	return gmm.MustNew(
		gmm.Component{Weight: 0.5, Mu: 50, Sigma: 10},
		gmm.Component{Weight: 0.5, Mu: 200, Sigma: 30},
	)
}

func TestNewModelStoreRequiresSeed(t *testing.T) {
	if _, err := NewModelStore(nil, RefreshConfig{}); err == nil {
		t.Error("nil seed accepted")
	}
}

func TestStoreServesSeedUntilEnoughResults(t *testing.T) {
	store, err := NewModelStore(seedModel(), RefreshConfig{MinResults: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		store.Report(100)
	}
	m, refitted, err := store.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if refitted {
		t.Error("refit happened below MinResults")
	}
	if m.MostProbableMode() != seedModel().MostProbableMode() {
		t.Error("seed model not served")
	}
}

func TestRefreshTracksPopulationShift(t *testing.T) {
	// The population moves to a new bimodal distribution; after refresh the
	// store's dominant mode must follow.
	store, err := NewModelStore(seedModel(), RefreshConfig{MinResults: 400, MaxModes: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	truth := gmm.MustNew(
		gmm.Component{Weight: 0.7, Mu: 500, Sigma: 40},
		gmm.Component{Weight: 0.3, Mu: 900, Sigma: 60},
	)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 3000; i++ {
		store.Report(truth.Sample(rng))
	}
	m, refitted, err := store.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if !refitted {
		t.Fatal("no refit despite a full window")
	}
	top := m.MostProbableMode().Rate
	if math.Abs(top-500) > 60 {
		t.Errorf("dominant mode after refresh = %.0f, want ≈500", top)
	}
	if store.Model() != m {
		t.Error("Model() does not serve the refreshed model")
	}
}

func TestReportIgnoresNonPositive(t *testing.T) {
	store, _ := NewModelStore(seedModel(), RefreshConfig{})
	store.Report(0)
	store.Report(-3)
	if store.Results() != 0 {
		t.Error("non-positive results retained")
	}
}

func TestWindowIsBounded(t *testing.T) {
	store, _ := NewModelStore(seedModel(), RefreshConfig{WindowSize: 100})
	for i := 0; i < 500; i++ {
		store.Report(float64(i + 1))
	}
	if got := store.Results(); got != 100 {
		t.Errorf("window holds %d results, want 100", got)
	}
}

func TestStoreConcurrentUse(t *testing.T) {
	store, _ := NewModelStore(seedModel(), RefreshConfig{MinResults: 50, Seed: 5})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				store.Report(rng.Float64()*100 + 50)
				if i%100 == 0 {
					_ = store.Model()
				}
			}
		}(int64(w))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if _, _, err := store.Refresh(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
}

// TestRefreshDeterministicForSeed pins the regression the walltime audit
// protects: two stores with the same seed and the same reported results must
// refit to bit-identical models, run after run.
func TestRefreshDeterministicForSeed(t *testing.T) {
	fit := func() *gmm.Model {
		store, err := NewModelStore(seedModel(), RefreshConfig{MinResults: 200, MaxModes: 4, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(43))
		truth := seedModel()
		for i := 0; i < 400; i++ {
			store.Report(truth.Sample(rng))
		}
		m, refitted, err := store.Refresh()
		if err != nil || !refitted {
			t.Fatalf("Refresh: refitted=%v err=%v", refitted, err)
		}
		return m
	}
	a, b := fit(), fit()
	ac, bc := a.Components(), b.Components()
	if len(ac) != len(bc) {
		t.Fatalf("component counts differ: %d vs %d", len(ac), len(bc))
	}
	for i := range ac {
		if ac[i] != bc[i] {
			t.Errorf("component %d differs across identical runs: %+v vs %+v", i, ac[i], bc[i])
		}
	}
}
