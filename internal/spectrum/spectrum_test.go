package spectrum

import (
	"math"
	"slices"
	"testing"
)

func TestTable1Contents(t *testing.T) {
	bands := LTEBands()
	if len(bands) != 9 {
		t.Fatalf("LTE bands = %d, want 9 (Table 1)", len(bands))
	}
	// Ordered by downlink spectrum.
	for i := 1; i < len(bands); i++ {
		if bands[i].DLLowMHz < bands[i-1].DLLowMHz {
			t.Errorf("bands not ordered by DL spectrum at %s", bands[i].Name)
		}
	}
	b3, ok := ByName("B3")
	if !ok {
		t.Fatal("B3 missing")
	}
	if b3.DLLowMHz != 1805 || b3.DLHighMHz != 1880 || b3.MaxChannelMHz != 20 {
		t.Errorf("B3 = %+v mismatches Table 1", b3)
	}
	if !slices.Contains(b3.ISPs, ISP1) || !slices.Contains(b3.ISPs, ISP2) || !slices.Contains(b3.ISPs, ISP3) || slices.Contains(b3.ISPs, ISP4) {
		t.Errorf("B3 ISPs wrong: %v", b3.ISPs)
	}
}

func TestHBandClassification(t *testing.T) {
	want := map[string]bool{
		"B28": true, "B5": false, "B8": false, "B3": true, "B39": true,
		"B34": false, "B1": true, "B40": true, "B41": true,
	}
	for _, b := range LTEBands() {
		if got := b.IsHBand(); got != want[b.Name] {
			t.Errorf("%s IsHBand = %v, want %v", b.Name, got, want[b.Name])
		}
	}
}

func TestTable2Contents(t *testing.T) {
	bands := NRBands()
	if len(bands) != 5 {
		t.Fatalf("NR bands = %d, want 5 (Table 2)", len(bands))
	}
	n41, _ := ByName("N41")
	if n41.MaxChannelMHz != 100 || n41.RefarmedFrom != "B41" || n41.ContiguousRefarmedMHz != 100 {
		t.Errorf("N41 = %+v mismatches §3.3", n41)
	}
	n1, _ := ByName("N1")
	if n1.ContiguousRefarmedMHz != 60 {
		t.Errorf("N1 refarmed width = %g, want 60", n1.ContiguousRefarmedMHz)
	}
	n28, _ := ByName("N28")
	if n28.ContiguousRefarmedMHz != 45 {
		t.Errorf("N28 refarmed width = %g, want 45", n28.ContiguousRefarmedMHz)
	}
	n78, _ := ByName("N78")
	if n78.IsRefarmed() {
		t.Error("N78 is a dedicated band")
	}
	if n78.UsableContiguousMHz() != 100 {
		t.Errorf("N78 usable = %g, want 100", n78.UsableContiguousMHz())
	}
}

// TestRefarmedFraction checks the headline §1/§3.2 number: Bands 1, 28 and 41
// together occupy 58.2 % of the H-Band spectrum.
func TestRefarmedFraction(t *testing.T) {
	got := RefarmedHBandFraction()
	if math.Abs(got-0.582) > 0.01 {
		t.Errorf("refarmed H-Band fraction = %.3f, want ≈0.582", got)
	}
}

func TestRefarmedUsableOrdering(t *testing.T) {
	// §3.3: N41's wide refarmed slice supports high bandwidth while N1/N28
	// are thin. The usable widths must reflect that.
	n41, _ := ByName("N41")
	n1, _ := ByName("N1")
	n28, _ := ByName("N28")
	if !(n41.UsableContiguousMHz() > n1.UsableContiguousMHz() &&
		n1.UsableContiguousMHz() > n28.UsableContiguousMHz()) {
		t.Errorf("usable widths not ordered: N41=%g N1=%g N28=%g",
			n41.UsableContiguousMHz(), n1.UsableContiguousMHz(), n28.UsableContiguousMHz())
	}
}

func TestByNameMissing(t *testing.T) {
	if _, ok := ByName("B99"); ok {
		t.Error("B99 should not exist")
	}
}

func TestCapacityShannon(t *testing.T) {
	// Wider channel → linearly more capacity (Shannon-Hartley, §3.2).
	c20 := Capacity(20, 20, 0.65)
	c100 := Capacity(100, 20, 0.65)
	if math.Abs(c100/c20-5) > 1e-9 {
		t.Errorf("capacity not linear in channel width: %g vs %g", c20, c100)
	}
	// Higher SNR → more capacity.
	if Capacity(20, 25, 0.65) <= c20 {
		t.Error("capacity not increasing in SNR")
	}
	if Capacity(0, 20, 0.65) != 0 {
		t.Error("zero channel should give zero capacity")
	}
	// Sanity: a 100 MHz NR channel at 20 dB SNR and 0.65 efficiency lands in
	// the hundreds of Mbps, matching commercial 5G.
	if c100 < 300 || c100 > 600 {
		t.Errorf("100 MHz capacity = %g Mbps, want 300–600", c100)
	}
}

func TestPathLossMonotone(t *testing.T) {
	if PathLossDB(700, 1) >= PathLossDB(3500, 1) {
		t.Error("higher frequency should lose more")
	}
	if PathLossDB(700, 1) >= PathLossDB(700, 5) {
		t.Error("longer distance should lose more")
	}
	if PathLossDB(0, 1) != 0 || PathLossDB(700, 0) != 0 {
		t.Error("degenerate inputs should yield 0")
	}
}

func fragBand() Band { return Band{Name: "Btest", DLLowMHz: 1000, DLHighMHz: 1100, MaxChannelMHz: 20} }

func TestAnalyzeFragmentation(t *testing.T) {
	band := fragBand()
	frags := []Fragment{
		{LowMHz: 1010, HighMHz: 1030, Owner: "LTE/ISP-1"},
		{LowMHz: 1050, HighMHz: 1070, Owner: "GSM/ISP-2"},
	}
	rep := AnalyzeFragmentation(band, frags, 100, 1)
	if rep.TotalMHz != 100 {
		t.Errorf("TotalMHz = %g", rep.TotalMHz)
	}
	if rep.AllocatedMHz != 40 {
		t.Errorf("AllocatedMHz = %g, want 40", rep.AllocatedMHz)
	}
	if rep.LargestFreeMHz != 30 { // tail gap 1070–1100
		t.Errorf("LargestFreeMHz = %g, want 30", rep.LargestFreeMHz)
	}
	if rep.RefarmableFor5G {
		t.Error("30 MHz gap should not satisfy a 100 MHz 5G need")
	}
	if rep.FragmentationIdx <= 0 || rep.FragmentationIdx >= 1 {
		t.Errorf("FragmentationIdx = %g, want in (0,1)", rep.FragmentationIdx)
	}
}

func TestAnalyzeFragmentationEmpty(t *testing.T) {
	band := fragBand()
	rep := AnalyzeFragmentation(band, nil, 50, 1)
	if rep.LargestFreeMHz != 100 || rep.FragmentationIdx != 0 {
		t.Errorf("empty band report = %+v", rep)
	}
	if !rep.RefarmableFor5G {
		t.Error("empty band should be refarmable")
	}
}

func TestDefragmentImproves(t *testing.T) {
	band := fragBand()
	frags := []Fragment{
		{LowMHz: 1005, HighMHz: 1020, Owner: "a"},
		{LowMHz: 1040, HighMHz: 1055, Owner: "b"},
		{LowMHz: 1080, HighMHz: 1095, Owner: "c"},
	}
	before := AnalyzeFragmentation(band, frags, 50, 1)
	newFrags, after := Defragment(band, frags, 50, 1)
	if len(newFrags) != 3 {
		t.Fatalf("defragment lost fragments: %d", len(newFrags))
	}
	if after.LargestFreeMHz <= before.LargestFreeMHz {
		t.Errorf("defragmentation did not grow the free gap: %g → %g",
			before.LargestFreeMHz, after.LargestFreeMHz)
	}
	if !after.RefarmableFor5G {
		t.Error("defragmented band should fit the 50 MHz 5G need")
	}
	// Width conservation.
	var wBefore, wAfter float64
	for _, f := range frags {
		wBefore += f.Width()
	}
	for _, f := range newFrags {
		wAfter += f.Width()
	}
	if math.Abs(wBefore-wAfter) > 1e-9 {
		t.Errorf("defragment changed allocated width: %g → %g", wBefore, wAfter)
	}
}

func TestCarrierAggregation(t *testing.T) {
	// §4: CA combines non-contiguous fragments into one wide channel.
	got := CarrierAggregation([]float64{15, 10, 25, 5}, 3, 20)
	// Picks 25→20 (capped), 15, 10 = 45.
	if got != 45 {
		t.Errorf("CA width = %g, want 45", got)
	}
	if CarrierAggregation(nil, 3, 20) != 0 {
		t.Error("no carriers should aggregate to 0")
	}
}

// TestLTEAdvancedPeak validates §3.2's LTE-Advanced claims: ≈2 Gbps at the
// technology limit, and the study's 813 Mbps field peak reachable with ≈3
// aggregated carriers at realistic SNR.
func TestLTEAdvancedPeak(t *testing.T) {
	// Technology limit: 5 × 20 MHz carriers, lab SNR, 4×4 MIMO.
	limit := LTEAdvancedPeak([]float64{20, 20, 20, 20, 20}, 5, 30, 0.75, 2.7)
	if limit < 1700 || limit > 2500 {
		t.Errorf("LTE-A technology peak = %.0f Mbps, want ≈2000", limit)
	}
	// Field conditions: 3 carriers from fragmented spectrum, 22 dB SNR,
	// 2×2 MIMO-class gain — the ≈813 Mbps of Figure 4's best tests.
	field := LTEAdvancedPeak([]float64{20, 20, 15, 10}, 3, 22, 0.7, 2.2)
	if field < 600 || field > 1000 {
		t.Errorf("LTE-A field peak = %.0f Mbps, want ≈813", field)
	}
	// Plain LTE (single carrier) must stay well below.
	plain := LTEAdvancedPeak([]float64{20}, 1, 22, 0.7, 1)
	if plain > 150 {
		t.Errorf("single-carrier LTE = %.0f Mbps, want ≤150 (§3.2)", plain)
	}
	if field <= plain*3 {
		t.Errorf("aggregation gain too small: %.0f vs %.0f", field, plain)
	}
}
