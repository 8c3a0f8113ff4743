package analysis

import (
	"math"
	"sync"
	"testing"

	"github.com/mobilebandwidth/swiftest/internal/dataset"
	"github.com/mobilebandwidth/swiftest/internal/spectrum"
)

// Shared test corpora, generated once: analysis functions are pure readers.
var (
	corpusOnce sync.Once
	recs2021   []dataset.Record
	recs2020   []dataset.Record
)

func corpus(t *testing.T) ([]dataset.Record, []dataset.Record) {
	t.Helper()
	corpusOnce.Do(func() {
		recs2021 = generate(dataset.MustNewGenerator(dataset.Config{Year: 2021, Seed: 11}), 1400000)
		recs2020 = generate(dataset.MustNewGenerator(dataset.Config{Year: 2020, Seed: 12}), 400000)
	})
	return recs2020, recs2021
}

// generate draws n records from g.
func generate(g *dataset.Generator, n int) []dataset.Record {
	out := make([]dataset.Record, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// single runs one fresh aggregator over records in a single pass.
func single[A Aggregator[A]](records []dataset.Record, agg A) A {
	for _, r := range records {
		agg.Observe(r)
	}
	return agg
}

// TestFig1 reproduces Figure 1: WiFi roughly flat year over year, 4G and 5G
// both declining.
func TestFig1(t *testing.T) {
	r20, r21 := corpus(t)
	a20 := single(r20, NewTechAgg()).Snapshot()
	a21 := single(r21, NewTechAgg()).Snapshot()
	if !(a21.Mean[dataset.Tech4G] < a20.Mean[dataset.Tech4G]*0.9) {
		t.Errorf("4G did not decline: %.1f → %.1f", a20.Mean[dataset.Tech4G], a21.Mean[dataset.Tech4G])
	}
	if !(a21.Mean[dataset.Tech5G] < a20.Mean[dataset.Tech5G]*0.95) {
		t.Errorf("5G did not decline: %.1f → %.1f", a20.Mean[dataset.Tech5G], a21.Mean[dataset.Tech5G])
	}
	wifiChange := math.Abs(a21.Mean[dataset.TechWiFi]-a20.Mean[dataset.TechWiFi]) / a20.Mean[dataset.TechWiFi]
	if wifiChange > 0.10 {
		t.Errorf("WiFi changed %.0f%%, want roughly unchanged", wifiChange*100)
	}
	// §3.1 consolation: the blended cellular average still rises.
	if single(r21, NewTechAgg()).CellularMean() <= single(r20, NewTechAgg()).CellularMean() {
		t.Errorf("overall cellular average did not rise: %.1f → %.1f",
			single(r20, NewTechAgg()).CellularMean(), single(r21, NewTechAgg()).CellularMean())
	}
}

// TestFig2 reproduces Figure 2: bandwidth rises with Android version for
// every technology.
func TestFig2(t *testing.T) {
	_, r21 := corpus(t)
	rows := single(r21, NewVersionAgg()).Snapshot()
	if len(rows) < 6 {
		t.Fatalf("only %d Android versions", len(rows))
	}
	for _, tech := range []dataset.Tech{dataset.Tech4G, dataset.Tech5G, dataset.TechWiFi} {
		prev := 0.0
		for _, row := range rows {
			if row.Count[tech] < 200 {
				continue
			}
			if m := row.Mean[tech]; m <= prev {
				t.Errorf("%v: Android %d mean %.0f not above previous %.0f", tech, row.Version, m, prev)
			} else {
				prev = m
			}
		}
	}
}

// TestFig3 reproduces Figure 3's ISP findings.
func TestFig3(t *testing.T) {
	_, r21 := corpus(t)
	rows := single(r21, NewISPAgg()).Snapshot()
	if len(rows) != 4 {
		t.Fatalf("ISP rows = %d, want 4", len(rows))
	}
	mean := func(isp spectrum.ISP, tech dataset.Tech) float64 {
		for _, r := range rows {
			if r.ISP == isp {
				return r.Mean[tech]
			}
		}
		return 0
	}
	if !(mean(spectrum.ISP3, dataset.Tech5G) > mean(spectrum.ISP1, dataset.Tech5G)) ||
		!(mean(spectrum.ISP3, dataset.Tech5G) > mean(spectrum.ISP2, dataset.Tech5G)) {
		t.Error("ISP-3 should lead 5G (dedicated low-frequency N78, §3.1)")
	}
	if !(mean(spectrum.ISP4, dataset.Tech5G) < mean(spectrum.ISP1, dataset.Tech5G)*0.6) {
		t.Error("ISP-4's 700 MHz 5G should trail far behind")
	}
	if !(mean(spectrum.ISP3, dataset.TechWiFi) > mean(spectrum.ISP1, dataset.TechWiFi)) {
		t.Error("ISP-3 should lead WiFi (fixed-broadband investment)")
	}
}

// TestFig4 reproduces Figure 4: the 4G distribution summary.
func TestFig4(t *testing.T) {
	_, r21 := corpus(t)
	d := single(r21, NewDistAgg()).Snapshot(dataset.Tech4G)
	if d.Count < 10000 {
		t.Fatalf("4G tests = %d, too few", d.Count)
	}
	if d.Median < 16 || d.Median > 28 {
		t.Errorf("median = %.1f, want ≈22", d.Median)
	}
	if d.Mean < 47 || d.Mean > 60 {
		t.Errorf("mean = %.1f, want ≈53", d.Mean)
	}
	if below := d.FractionBelow(10); below < 0.2 || below > 0.36 {
		t.Errorf("P(<10) = %.3f, want ≈0.263", below)
	}
	if above := d.FractionAbove(300); above < 0.02 || above > 0.12 {
		t.Errorf("P(>300) = %.3f, want ≈0.068", above)
	}
	// CDF is monotone and ends at the max.
	for i := 1; i < len(d.CDF); i++ {
		if d.CDF[i].X < d.CDF[i-1].X || d.CDF[i].F <= d.CDF[i-1].F {
			t.Fatal("CDF not monotone")
		}
	}
	if last := d.CDF[len(d.CDF)-1]; last.X != d.Max {
		t.Error("CDF does not end at max")
	}
}

// TestFig5and6 reproduces the LTE band figures.
func TestFig5and6(t *testing.T) {
	_, r21 := corpus(t)
	rows := single(r21, NewBandAgg()).Snapshot(spectrum.LTE)
	if len(rows) != 9 {
		t.Fatalf("LTE band rows = %d, want 9", len(rows))
	}
	byName := map[string]BandRow{}
	for _, r := range rows {
		byName[r.Band.Name] = r
	}
	if b1, b8 := byName["B1"], byName["B8"]; b1.Mean <= b8.Mean {
		t.Errorf("H-band B1 (%.0f) not above L-band B8 (%.0f)", b1.Mean, b8.Mean)
	}
	hband, top, topName := HBandShare(rows)
	if hband < 0.78 || hband > 0.93 {
		t.Errorf("H-band share = %.3f, want ≈0.856", hband)
	}
	if topName != "B3" || top < 0.45 || top > 0.62 {
		t.Errorf("busiest band = %s at %.2f, want B3 ≈0.55", topName, top)
	}
	// B28 is served by ISP-4 only and must be vanishingly rare.
	if byName["B28"].Count > 20 {
		t.Errorf("B28 count = %d, want ≈0 (two tests in the study)", byName["B28"].Count)
	}
}

// TestFig8and9 reproduces the 5G band figures.
func TestFig8and9(t *testing.T) {
	_, r21 := corpus(t)
	rows := single(r21, NewBandAgg()).Snapshot(spectrum.NR)
	byName := map[string]BandRow{}
	var total int
	for _, r := range rows {
		byName[r.Band.Name] = r
		total += r.Count
	}
	if n78 := float64(byName["N78"].Count) / float64(total); n78 < 0.5 || n78 > 0.75 {
		t.Errorf("N78 share = %.2f, want ≈0.62", n78)
	}
	if byName["N1"].Mean > byName["N41"].Mean*0.5 {
		t.Errorf("thin refarmed N1 (%.0f) should be far below N41 (%.0f)",
			byName["N1"].Mean, byName["N41"].Mean)
	}
	if byName["N79"].Count > 10 {
		t.Errorf("N79 count = %d, want ≈3 (under test deployment)", byName["N79"].Count)
	}
}

// TestFig10 reproduces the diurnal pattern.
func TestFig10(t *testing.T) {
	_, r21 := corpus(t)
	rows := single(r21, NewDiurnalAgg()).Snapshot(dataset.Tech5G)
	if len(rows) != 24 {
		t.Fatalf("rows = %d", len(rows))
	}
	mean := func(hs ...int) float64 {
		var s float64
		var n int
		for _, h := range hs {
			s += rows[h].Mean * float64(rows[h].Tests)
			n += rows[h].Tests
		}
		return s / float64(n)
	}
	if !(mean(3, 4) > mean(15, 16) && mean(15, 16) > mean(21, 22)) {
		t.Errorf("diurnal bandwidth ordering wrong: dawn %.0f afternoon %.0f night %.0f",
			mean(3, 4), mean(15, 16), mean(21, 22))
	}
	if rows[3].Tests+rows[4].Tests >= rows[20].Tests {
		t.Error("load at dawn should be far below the evening peak")
	}
}

// TestFig11and12 reproduces the RSS correlations.
func TestFig11and12(t *testing.T) {
	_, r21 := corpus(t)
	rows5 := single(r21, NewRSSAgg()).Snapshot(dataset.Tech5G)
	for i := 1; i < 5; i++ {
		if rows5[i].MeanSNR <= rows5[i-1].MeanSNR {
			t.Error("SNR must rise with RSS level (Figure 11)")
		}
	}
	for i := 1; i < 4; i++ {
		if rows5[i].MeanBW <= rows5[i-1].MeanBW {
			t.Errorf("5G bandwidth should rise through level %d", i+1)
		}
	}
	if !(rows5[4].MeanBW < rows5[3].MeanBW && rows5[4].MeanBW < rows5[2].MeanBW) {
		t.Error("5G level-5 bandwidth drop missing (Figure 12)")
	}
	rows4 := single(r21, NewRSSAgg()).Snapshot(dataset.Tech4G)
	for i := 1; i < 5; i++ {
		if rows4[i].MeanBW <= rows4[i-1].MeanBW {
			t.Error("4G bandwidth must stay monotone in RSS (§3.3)")
		}
	}
}

// TestFig13to15 reproduces the WiFi distribution figures.
func TestFig13to15(t *testing.T) {
	_, r21 := corpus(t)
	all := WiFiDistributions(r21, nil)
	if !(all.ByStandard[4].Mean < all.ByStandard[5].Mean && all.ByStandard[5].Mean < all.ByStandard[6].Mean) {
		t.Errorf("overall WiFi means not increasing: %.0f %.0f %.0f",
			all.ByStandard[4].Mean, all.ByStandard[5].Mean, all.ByStandard[6].Mean)
	}
	g24 := dataset.Band24GHz
	on24 := WiFiDistributions(r21, &g24)
	if _, has5 := on24.ByStandard[5]; has5 {
		t.Error("WiFi 5 must not appear on 2.4 GHz")
	}
	if !(on24.ByStandard[4].Mean < on24.ByStandard[6].Mean) {
		t.Error("2.4 GHz: WiFi 6 should beat WiFi 4 (Figure 14)")
	}
	g5 := dataset.Band5GHz
	on5 := WiFiDistributions(r21, &g5)
	w4, w5 := on5.ByStandard[4].Mean, on5.ByStandard[5].Mean
	if math.Abs(w4-w5)/w5 > 0.2 {
		t.Errorf("5 GHz WiFi4 (%.0f) vs WiFi5 (%.0f) should be close (§3.4 key finding)", w4, w5)
	}
}

// TestPlanShares reproduces §3.4's broadband-plan findings.
func TestPlanShares(t *testing.T) {
	_, r21 := corpus(t)
	all := single(r21, NewWiFiAgg(nil)).PlanShareAtOrBelow(0)
	if all < 0.55 || all > 0.75 {
		t.Errorf("≤200 Mbps plan share = %.2f, want ≈0.64", all)
	}
	w6 := single(r21, NewWiFiAgg(nil)).PlanShareAtOrBelow(6)
	if w6 > all-0.1 {
		t.Errorf("WiFi 6 ≤200 plan share (%.2f) should be well below overall (%.2f)", w6, all)
	}
}

// TestFig16PDF fits the WiFi 5 mixture and checks multi-modality with modes
// near the broadband plans.
func TestFig16PDF(t *testing.T) {
	_, r21 := corpus(t)
	res, err := BandwidthPDF(r21, WiFiStandardFilter(5), 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Modes < 2 {
		t.Errorf("WiFi 5 PDF fitted %d modes, want multi-modal (Figure 16)", res.Modes)
	}
	if len(res.Points) == 0 {
		t.Error("no KDE points")
	}
	// At least one fitted mode should sit near a plan cluster (~100×n).
	foundCluster := false
	for _, c := range res.Model.Components() {
		for _, plan := range []float64{50, 100, 200, 300, 500, 1000} {
			if math.Abs(c.Mu-plan*0.94) < plan*0.25 {
				foundCluster = true
			}
		}
	}
	if !foundCluster {
		t.Errorf("no fitted mode near a broadband plan: %v", res.Model)
	}
}

// TestFig18and19PDF checks 4G and 5G multi-modality (Figures 18, 19).
func TestFig18and19PDF(t *testing.T) {
	_, r21 := corpus(t)
	for tech, hi := range map[dataset.Tech]float64{dataset.Tech4G: 500, dataset.Tech5G: 1000} {
		res, err := BandwidthPDF(r21, TechFilter(tech), hi, 2)
		if err != nil {
			t.Fatalf("%v: %v", tech, err)
		}
		if res.Modes < 2 {
			t.Errorf("%v PDF fitted %d modes, want multi-modal", tech, res.Modes)
		}
	}
}

func TestBandwidthPDFTooFew(t *testing.T) {
	if _, err := BandwidthPDF(nil, TechFilter(dataset.Tech4G), 100, 1); err == nil {
		t.Error("empty input accepted")
	}
}

func TestEmptyInputs(t *testing.T) {
	if got := single(nil, NewTechAgg()).CellularMean(); got != 0 {
		t.Error("single(nil, NewTechAgg()).CellularMean() != 0")
	}
	if d := single(nil, NewDistAgg()).Snapshot(dataset.Tech4G); d.Count != 0 || d.FractionBelow(10) != 0 || d.MeanAbove(5) != 0 {
		t.Error("empty distribution not zero")
	}
	if h, tp, name := HBandShare(nil); h != 0 || tp != 0 || name != "" {
		t.Error("empty HBandShare not zero")
	}
	if got := single(nil, NewWiFiAgg(nil)).PlanShareAtOrBelow(0); got != 0 {
		t.Error("empty PlanShare not zero")
	}
}
