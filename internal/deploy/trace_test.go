package deploy

import (
	"math/rand"
	"testing"
	"time"
)

func drawCellular(rng *rand.Rand) float64 {
	// A rough 2021 cellular mix: mostly ≈50 Mbps 4G, some ≈300 Mbps 5G.
	if rng.Float64() < 0.35 {
		return 300 + rng.NormFloat64()*80
	}
	return 50 + rng.NormFloat64()*25
}

func TestGenerateTraceValidation(t *testing.T) {
	if _, err := GenerateTrace(TraceOptions{}); err == nil {
		t.Error("missing DrawBandwidth accepted")
	}
}

func TestGenerateTraceShape(t *testing.T) {
	trace, err := GenerateTrace(TraceOptions{
		Days:          1,
		DrawBandwidth: drawCellular,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != 24*60 {
		t.Fatalf("trace points = %d, want 1440", len(trace))
	}
	// Diurnal shape: evening requirement above the pre-dawn trough.
	var dawn, evening float64
	var dawnN, eveN int
	for _, p := range trace {
		switch h := int(p.At.Hours()) % 24; {
		case h >= 2 && h < 5:
			dawn += p.RequiredMbps
			dawnN++
		case h >= 19 && h < 22:
			evening += p.RequiredMbps
			eveN++
		}
	}
	if evening/float64(eveN) <= dawn/float64(dawnN) {
		t.Error("evening requirement not above the pre-dawn trough")
	}
}

// TestSec52OverProvisioning regenerates the §5.2 observation: against the
// legacy 352-server fleet, the required bandwidth stays below 5 % of the
// available capacity in ≈98 % of time.
func TestSec52OverProvisioning(t *testing.T) {
	trace, err := GenerateTrace(TraceOptions{
		Days:          2,
		TestsPerDay:   200000,
		DrawBandwidth: drawCellular,
		Seed:          3,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := SummarizeTrace(trace, LegacyFleetMbps)
	if err != nil {
		t.Fatal(err)
	}
	if sum.TimeBelow5Pct < 0.90 {
		t.Errorf("time below 5%% = %.3f, want ≈0.98 (§5.2)", sum.TimeBelow5Pct)
	}
	if sum.PeakMbps <= sum.MeanMbps {
		t.Error("peak not above mean")
	}
	t.Logf("§5.2: %.1f%% of time below 5%% of %0.f Mbps (mean %.0f, peak %.0f)",
		100*sum.TimeBelow5Pct, sum.FleetMbps, sum.MeanMbps, sum.PeakMbps)
}

func TestSummarizeTraceValidation(t *testing.T) {
	if _, err := SummarizeTrace(nil, 100); err == nil {
		t.Error("empty trace accepted")
	}
	if _, err := SummarizeTrace([]TracePoint{{}}, 0); err == nil {
		t.Error("zero capacity accepted")
	}
}

func TestTraceFeedsPlanner(t *testing.T) {
	// The §5.2 pipeline: trace → peak requirement → purchase plan.
	trace, err := GenerateTrace(TraceOptions{
		Days:          1,
		TestsPerDay:   10000,
		TestDuration:  1200 * time.Millisecond, // Swiftest-era tests
		DrawBandwidth: drawCellular,
		Seed:          5,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := SummarizeTrace(trace, LegacyFleetMbps)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanPurchase(SyntheticCatalogue(), sum.PeakMbps, 0.075, PlanOptions{MinServers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if plan.TotalMbps < sum.PeakMbps {
		t.Error("plan does not cover the traced peak")
	}
	if plan.TotalMbps > LegacyFleetMbps/10 {
		t.Errorf("plan capacity %.0f Mbps not far below the legacy fleet", plan.TotalMbps)
	}
}
