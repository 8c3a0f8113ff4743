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
