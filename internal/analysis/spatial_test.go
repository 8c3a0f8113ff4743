package analysis

import (
	"testing"

	"github.com/mobilebandwidth/swiftest/internal/dataset"
)

// TestUrbanRuralRatios pins the §3.1 gaps: urban 4G +24 %, urban 5G +33 %,
// with the 5G gap the larger.
func TestUrbanRuralRatios(t *testing.T) {
	_, r21 := corpus(t)
	r4 := single(r21, NewSpatialAgg()).UrbanRuralRatio(dataset.Tech4G)
	r5 := single(r21, NewSpatialAgg()).UrbanRuralRatio(dataset.Tech5G)
	if r4 < 1.1 || r4 > 1.45 {
		t.Errorf("4G urban/rural = %.2f, want ≈1.24", r4)
	}
	if r5 < 1.15 || r5 > 1.6 {
		t.Errorf("5G urban/rural = %.2f, want ≈1.33", r5)
	}
	if r5 <= r4 {
		t.Errorf("5G gap (%.2f) should exceed 4G gap (%.2f)", r5, r4)
	}
}

// TestCityRange checks §3.1's spatial dispersion: wide per-city ranges for
// every technology.
func TestCityRange(t *testing.T) {
	_, r21 := corpus(t)
	lo4, hi4, n4 := single(r21, NewSpatialAgg()).CityRange(dataset.Tech4G, 30)
	if n4 < 50 {
		t.Fatalf("only %d cities with enough 4G tests", n4)
	}
	if hi4/lo4 < 1.5 {
		t.Errorf("4G city range %.0f–%.0f too narrow (paper: 28–119)", lo4, hi4)
	}
	lo5, hi5, n5 := single(r21, NewSpatialAgg()).CityRange(dataset.Tech5G, 30)
	if n5 < 30 {
		t.Fatalf("only %d cities with enough 5G tests", n5)
	}
	if hi5/lo5 < 1.5 {
		t.Errorf("5G city range %.0f–%.0f too narrow (paper: 113–428)", lo5, hi5)
	}
}

func TestCityRangeEmpty(t *testing.T) {
	if lo, hi, n := single(nil, NewSpatialAgg()).CityRange(dataset.Tech4G, 1); lo != 0 || hi != 0 || n != 0 {
		t.Error("empty input should report zeros")
	}
}

// TestUnbalancedCityShare checks §3.1's "41 % cities are subject to
// unbalanced development of 4G and 5G".
func TestUnbalancedCityShare(t *testing.T) {
	_, r21 := corpus(t)
	share := single(r21, NewSpatialAgg()).UnbalancedCityShare(20)
	if share < 0.2 || share > 0.65 {
		t.Errorf("unbalanced city share = %.2f, want ≈0.41", share)
	}
	if single(nil, NewSpatialAgg()).UnbalancedCityShare(1) != 0 {
		t.Error("empty input should report 0")
	}
}

func TestUrbanRuralRatioEmpty(t *testing.T) {
	if single(nil, NewSpatialAgg()).UrbanRuralRatio(dataset.Tech4G) != 0 {
		t.Error("empty input should report 0")
	}
}
