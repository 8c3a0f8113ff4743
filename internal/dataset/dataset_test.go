package dataset

import (
	"math"
	"testing"

	"github.com/mobilebandwidth/swiftest/internal/spectrum"
	"github.com/mobilebandwidth/swiftest/internal/stats"
)

// Generate draws n records, continuing the generator's stream.
func (g *Generator) Generate(n int) []Record {
	out := make([]Record, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

func gen(t *testing.T, year int, n int) []Record {
	t.Helper()
	g, err := NewGenerator(Config{Year: year, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return g.Generate(n)
}

func TestNewGeneratorValidation(t *testing.T) {
	if _, err := NewGenerator(Config{Year: 2019}); err == nil {
		t.Error("uncalibrated year accepted")
	}
}

func TestDeterminism(t *testing.T) {
	a := MustNewGenerator(Config{Year: 2021, Seed: 7}).Generate(100)
	b := MustNewGenerator(Config{Year: 2021, Seed: 7}).Generate(100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs between identical seeds", i)
		}
	}
	c := MustNewGenerator(Config{Year: 2021, Seed: 8}).Generate(100)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestRecordFieldValidity(t *testing.T) {
	for _, r := range gen(t, 2021, 20000) {
		if r.BandwidthMbps <= 0 {
			t.Fatalf("non-positive bandwidth: %+v", r)
		}
		if r.Hour < 0 || r.Hour > 23 {
			t.Fatalf("bad hour: %+v", r)
		}
		if r.CityID < 0 || r.CityID >= NumCities {
			t.Fatalf("bad city: %+v", r)
		}
		if r.AndroidVersion < 5 || r.AndroidVersion > 12 {
			t.Fatalf("bad android version: %+v", r)
		}
		switch r.Tech {
		case Tech4G, Tech5G, Tech3G:
			if r.RSSLevel < 1 || r.RSSLevel > 5 {
				t.Fatalf("bad RSS level: %+v", r)
			}
			if _, ok := spectrum.ByName(r.Band); !ok {
				t.Fatalf("unknown band %q", r.Band)
			}
			if r.Tech != Tech3G && r.SNRdB < 0 {
				t.Fatalf("negative SNR: %+v", r)
			}
		case TechWiFi:
			if r.WiFiStandard < 4 || r.WiFiStandard > 6 {
				t.Fatalf("bad WiFi standard: %+v", r)
			}
			if r.WiFiStandard == 5 && r.WiFiRadio != Band5GHz {
				t.Fatalf("WiFi 5 on 2.4 GHz: %+v", r)
			}
			if r.PlanMbps < 50 {
				t.Fatalf("bad plan: %+v", r)
			}
		}
	}
}

func techSamples(rs []Record) map[Tech]*stats.Sample {
	byTech := map[Tech][]float64{}
	for _, r := range rs {
		byTech[r.Tech] = append(byTech[r.Tech], r.BandwidthMbps)
	}
	out := map[Tech]*stats.Sample{}
	for tech, xs := range byTech {
		out[tech] = stats.NewSample(xs)
	}
	return out
}

// groupMeans reports each group's mean, for failure messages.
func groupMeans[K comparable](groups map[K][]float64) map[K]float64 {
	out := make(map[K]float64, len(groups))
	for k, xs := range groups {
		out[k] = stats.Mean(xs)
	}
	return out
}

// TestFig1Calibration pins the headline year-over-year numbers: 4G 68→53,
// 5G 343→305, WiFi 132→137 Mbps (±10 %).
func TestFig1Calibration(t *testing.T) {
	want := map[int]map[Tech]float64{
		2020: {Tech4G: 68, Tech5G: 343, TechWiFi: 132},
		2021: {Tech4G: 53, Tech5G: 305, TechWiFi: 137},
	}
	for year, techs := range want {
		samples := techSamples(gen(t, year, 400000))
		for tech, target := range techs {
			got := samples[tech].Mean()
			if math.Abs(got-target)/target > 0.10 {
				t.Errorf("%d %v mean = %.1f, want ≈%.0f", year, tech, got, target)
			}
		}
	}
}

// TestFig4Skew pins the 4G distribution's skew: median ≈22 vs mean ≈53, a
// heavy sub-10 Mbps mass and an LTE-Advanced tail above 300 Mbps.
func TestFig4Skew(t *testing.T) {
	var xs []float64
	for _, r := range gen(t, 2021, 500000) {
		if r.Tech == Tech4G {
			xs = append(xs, r.BandwidthMbps)
		}
	}
	s := stats.NewSample(xs)
	if med := s.Median(); med < 17 || med > 28 {
		t.Errorf("4G median = %.1f, want ≈22", med)
	}
	if below := s.FractionBelow(10); below < 0.20 || below > 0.36 {
		t.Errorf("P(<10 Mbps) = %.3f, want ≈0.263", below)
	}
	above := s.FractionAbove(300)
	if above < 0.02 || above > 0.12 {
		t.Errorf("P(>300 Mbps) = %.3f, want ≈0.068", above)
	}
	if ma := s.MeanAbove(300); ma < 340 || ma > 480 {
		t.Errorf("mean above 300 = %.0f, want ≈403 (LTE-Advanced)", ma)
	}
}

// TestFig5BandMeans checks per-LTE-band calibration and the H-Band/L-Band
// contrast, including the B39/B34 anomaly (§3.2).
func TestFig5BandMeans(t *testing.T) {
	groups := map[string][]float64{}
	for _, r := range gen(t, 2021, 600000) {
		if r.Tech == Tech4G {
			groups[r.Band] = append(groups[r.Band], r.BandwidthMbps)
		}
	}
	if len(groups["B3"]) < 1000 {
		t.Fatal("too few B3 tests")
	}
	for band, want := range map[string]float64{"B3": 56, "B1": 63, "B41": 58, "B39": 48.2, "B34": 47.1, "B8": 35} {
		g := groups[band]
		if len(g) < 50 {
			t.Errorf("band %s missing or tiny", band)
			continue
		}
		if got := stats.Mean(g); math.Abs(got-want)/want > 0.15 {
			t.Errorf("band %s mean = %.1f, want ≈%.1f", band, got, want)
		}
	}
	// H-band B1 must beat L-band B8 (§3.2), and B39 ≈ B34 despite being an
	// H-band (rural deployment).
	if stats.Mean(groups["B1"]) <= stats.Mean(groups["B8"]) {
		t.Error("H-band B1 not above L-band B8")
	}
	if d := math.Abs(stats.Mean(groups["B39"]) - stats.Mean(groups["B34"])); d > 10 {
		t.Errorf("B39 vs B34 gap = %.1f, want small (§3.2 anomaly)", d)
	}
}

// TestFig6BandLoad checks the workload skew: Band 3 alone serves ≈55 % of
// LTE tests and H-bands ≈85.6 %.
func TestFig6BandLoad(t *testing.T) {
	counts := map[string]int{}
	total := 0
	for _, r := range gen(t, 2021, 500000) {
		if r.Tech == Tech4G {
			counts[r.Band]++
			total++
		}
	}
	b3 := float64(counts["B3"]) / float64(total)
	if b3 < 0.48 || b3 < 0.4 || b3 > 0.62 {
		t.Errorf("B3 share = %.3f, want ≈0.55", b3)
	}
	var hband int
	for band, c := range counts {
		if b, ok := spectrum.ByName(band); ok && b.IsHBand() {
			hband += c
		}
	}
	if share := float64(hband) / float64(total); share < 0.78 || share > 0.93 {
		t.Errorf("H-band share = %.3f, want ≈0.856", share)
	}
}

// TestFig8NRBands checks the refarming contrast: thin refarmed N1/N28 far
// below wide N41/N78.
func TestFig8NRBands(t *testing.T) {
	groups := map[string][]float64{}
	for _, r := range gen(t, 2021, 800000) {
		if r.Tech == Tech5G {
			groups[r.Band] = append(groups[r.Band], r.BandwidthMbps)
		}
	}
	for band, want := range map[string]float64{"N78": 332, "N41": 312, "N1": 103, "N28": 113} {
		g := groups[band]
		if len(g) < 100 {
			t.Fatalf("band %s missing or tiny", band)
		}
		if got := stats.Mean(g); math.Abs(got-want)/want > 0.15 {
			t.Errorf("band %s mean = %.1f, want ≈%.0f", band, got, want)
		}
	}
	if stats.Mean(groups["N1"]) > stats.Mean(groups["N41"])/2 {
		t.Error("refarmed N1 should sit far below N41 (§3.3)")
	}
}

// TestFig12RSSAnomaly checks the counter-intuitive 5G finding: bandwidth
// rises through RSS level 4 and drops at level 5; 4G stays monotone.
func TestFig12RSSAnomaly(t *testing.T) {
	g5 := map[int][]float64{}
	g4 := map[int][]float64{}
	snr := map[int][]float64{}
	for _, r := range gen(t, 2021, 800000) {
		switch r.Tech {
		case Tech5G:
			g5[r.RSSLevel] = append(g5[r.RSSLevel], r.BandwidthMbps)
			snr[r.RSSLevel] = append(snr[r.RSSLevel], r.SNRdB)
		case Tech4G:
			g4[r.RSSLevel] = append(g4[r.RSSLevel], r.BandwidthMbps)
		}
	}
	means5 := make([]float64, 5)
	means4 := make([]float64, 5)
	snrs := make([]float64, 5)
	for i := 1; i <= 5; i++ {
		means5[i-1] = stats.Mean(g5[i])
		means4[i-1] = stats.Mean(g4[i])
		snrs[i-1] = stats.Mean(snr[i])
	}
	for i := 1; i < 4; i++ {
		if means5[i] <= means5[i-1] {
			t.Errorf("5G level %d→%d not rising: %.0f → %.0f", i, i+1, means5[i-1], means5[i])
		}
	}
	if !(means5[4] < means5[3] && means5[4] < means5[2]) {
		t.Errorf("5G level-5 drop missing: levels = %.0f %.0f %.0f %.0f %.0f",
			means5[0], means5[1], means5[2], means5[3], means5[4])
	}
	for i := 1; i < 5; i++ {
		if means4[i] <= means4[i-1] {
			t.Errorf("4G level %d→%d not monotone (§3.3 contrast)", i, i+1)
		}
		if snrs[i] <= snrs[i-1] {
			t.Errorf("SNR not rising with RSS level (Figure 11)")
		}
	}
}

// TestFig10Diurnal checks the sleeping-strategy signature: 5G bandwidth
// bottoms at 21–23 h despite light load and peaks at 03–05 h.
func TestFig10Diurnal(t *testing.T) {
	var byHour [24][]float64
	counts := make([]int, 24)
	for _, r := range gen(t, 2021, 1200000) {
		if r.Tech == Tech5G {
			byHour[r.Hour] = append(byHour[r.Hour], r.BandwidthMbps)
			counts[r.Hour]++
		}
	}
	night := mergedMean(&byHour, 21, 22) // 21:00–23:00
	dawn := mergedMean(&byHour, 3, 4)    // 03:00–05:00
	afternoon := mergedMean(&byHour, 15, 16)
	if !(dawn > afternoon && afternoon > night) {
		t.Errorf("diurnal ordering wrong: dawn %.0f, afternoon %.0f, night %.0f", dawn, afternoon, night)
	}
	if counts[3]+counts[4] >= counts[21]+counts[22] {
		t.Error("dawn should have far fewer tests than 21–23 h")
	}
	if counts[20] <= counts[3] {
		t.Error("evening peak load missing")
	}
}

func mergedMean(byHour *[24][]float64, hours ...int) float64 {
	var sum float64
	var n int
	for _, h := range hours {
		xs := byHour[h]
		sum += stats.Mean(xs) * float64(len(xs))
		n += len(xs)
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// TestFig13WiFiStandards checks the WiFi generation means and the §3.4
// surprise: WiFi 4 ≈ WiFi 5 on the 5 GHz band.
func TestFig13WiFiStandards(t *testing.T) {
	byStd := map[int][]float64{}
	on5 := map[int][]float64{}
	for _, r := range gen(t, 2021, 500000) {
		if r.Tech != TechWiFi {
			continue
		}
		byStd[r.WiFiStandard] = append(byStd[r.WiFiStandard], r.BandwidthMbps)
		if r.WiFiRadio == Band5GHz {
			on5[r.WiFiStandard] = append(on5[r.WiFiStandard], r.BandwidthMbps)
		}
	}
	for std, want := range map[int]float64{4: 59, 5: 208, 6: 345} {
		got := stats.Mean(byStd[std])
		if math.Abs(got-want)/want > 0.12 {
			t.Errorf("WiFi %d mean = %.0f, want ≈%.0f", std, got, want)
		}
	}
	w4 := stats.Mean(on5[4])
	w5 := stats.Mean(on5[5])
	if math.Abs(w4-w5)/w5 > 0.20 {
		t.Errorf("5 GHz means WiFi4 %.0f vs WiFi5 %.0f should be close (§3.4)", w4, w5)
	}
}

// TestPlanCeiling checks §3.4's core mechanism: WiFi bandwidth clusters just
// under the broadband plan.
func TestPlanCeiling(t *testing.T) {
	over := 0
	n := 0
	for _, r := range gen(t, 2021, 300000) {
		if r.Tech != TechWiFi {
			continue
		}
		n++
		if r.BandwidthMbps > r.PlanMbps*1.35 {
			over++
		}
	}
	if frac := float64(over) / float64(n); frac > 0.02 {
		t.Errorf("%.1f%% of WiFi tests far exceed their plan", frac*100)
	}
}

// TestFig2AndroidVersions checks the monotone version effect and the small
// device-model spread at a fixed version.
func TestFig2AndroidVersions(t *testing.T) {
	byVer := map[int][]float64{}
	for _, r := range gen(t, 2021, 600000) {
		if r.Tech == Tech5G {
			byVer[r.AndroidVersion] = append(byVer[r.AndroidVersion], r.BandwidthMbps)
		}
	}
	prev := 0.0
	for v := 5; v <= 12; v++ {
		xs := byVer[v]
		if len(xs) < 100 {
			continue
		}
		if m := stats.Mean(xs); m <= prev {
			t.Errorf("5G bandwidth not rising with Android version at %d: %.0f ≤ %.0f", v, m, prev)
		} else {
			prev = m
		}
	}
}

// TestFig3ISPs checks the ISP ordering findings: similar 4G, ISP-3 on top
// for 5G and WiFi, ISP-4 far behind on 5G.
func TestFig3ISPs(t *testing.T) {
	fiveG := map[spectrum.ISP][]float64{}
	fourG := map[spectrum.ISP][]float64{}
	wifi := map[spectrum.ISP][]float64{}
	for _, r := range gen(t, 2021, 900000) {
		switch r.Tech {
		case Tech5G:
			fiveG[r.ISP] = append(fiveG[r.ISP], r.BandwidthMbps)
		case Tech4G:
			fourG[r.ISP] = append(fourG[r.ISP], r.BandwidthMbps)
		case TechWiFi:
			wifi[r.ISP] = append(wifi[r.ISP], r.BandwidthMbps)
		}
	}
	isp := func(g map[spectrum.ISP][]float64, i int) float64 {
		return stats.Mean(g[spectrum.ISP(i)])
	}
	// 5G: ISP-3 highest among 1–3; ISP-4 lowest by far.
	if !(isp(fiveG, 3) > isp(fiveG, 1) && isp(fiveG, 3) > isp(fiveG, 2)) {
		t.Errorf("5G ISP-3 not on top: %v", groupMeans(fiveG))
	}
	if isp(fiveG, 4) > isp(fiveG, 1)/1.5 {
		t.Errorf("5G ISP-4 (700 MHz) should trail badly: %v", groupMeans(fiveG))
	}
	// WiFi: ISP-3 highest (broadband investment).
	for i := 1; i <= 2; i++ {
		if isp(wifi, 3) <= isp(wifi, i) {
			t.Errorf("WiFi ISP-3 not above ISP-%d: %v", i, groupMeans(wifi))
		}
	}
	// 4G: ISPs 1–3 similar (mature infrastructure): spread within 25 %.
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 1; i <= 3; i++ {
		m := isp(fourG, i)
		lo, hi = math.Min(lo, m), math.Max(hi, m)
	}
	if (hi-lo)/hi > 0.25 {
		t.Errorf("4G ISP spread too wide: %v", groupMeans(fourG))
	}
}

// TestUrbanRuralGap checks the §3.1 urban/rural bandwidth ratios.
func TestUrbanRuralGap(t *testing.T) {
	type acc struct{ urban, rural []float64 }
	gaps := map[Tech]*acc{Tech4G: {}, Tech5G: {}}
	for _, r := range gen(t, 2021, 700000) {
		a, ok := gaps[r.Tech]
		if !ok {
			continue
		}
		if r.Urban {
			a.urban = append(a.urban, r.BandwidthMbps)
		} else {
			a.rural = append(a.rural, r.BandwidthMbps)
		}
	}
	r4 := stats.Mean(gaps[Tech4G].urban) / stats.Mean(gaps[Tech4G].rural)
	r5 := stats.Mean(gaps[Tech5G].urban) / stats.Mean(gaps[Tech5G].rural)
	if r4 < 1.10 || r4 > 1.45 {
		t.Errorf("4G urban/rural ratio = %.2f, want ≈1.24", r4)
	}
	if r5 < 1.15 || r5 > 1.60 {
		t.Errorf("5G urban/rural ratio = %.2f, want ≈1.33", r5)
	}
	if r5 <= r4 {
		t.Errorf("5G gap (%.2f) should exceed 4G gap (%.2f)", r5, r4)
	}
}

func TestTechModel(t *testing.T) {
	for _, tech := range []Tech{Tech4G, Tech5G, TechWiFi} {
		m, err := TechModel(tech)
		if err != nil {
			t.Fatalf("%v: %v", tech, err)
		}
		if m.K() < 2 {
			t.Errorf("%v model has %d modes, want multi-modal", tech, m.K())
		}
		if m.Mean() <= 0 {
			t.Errorf("%v model mean not positive", tech)
		}
	}
	if _, err := TechModel(Tech3G); err == nil {
		t.Error("3G model should be unavailable")
	}
	// The 5G model's mean should sit near the measured 5G mean.
	m5, _ := TechModel(Tech5G)
	if math.Abs(m5.Mean()-300)/300 > 0.15 {
		t.Errorf("5G model mean = %.0f, want ≈300", m5.Mean())
	}
}

func TestTechAndTierStrings(t *testing.T) {
	if Tech4G.String() != "4G" || TechWiFi.String() != "WiFi" || Tech(99).String() == "" {
		t.Error("Tech strings wrong")
	}
	if CityMega.String() != "mega" || CitySmall.String() != "small" {
		t.Error("CityTier strings wrong")
	}
	if Band24GHz.String() != "2.4GHz" || Band5GHz.String() != "5GHz" {
		t.Error("RadioBand strings wrong")
	}
}

// TestStationDiversity checks the §3.1 asymmetry: cellular tests concentrate
// on far fewer stations (base stations) than WiFi tests (home APs).
func TestStationDiversity(t *testing.T) {
	records := gen(t, 2021, 150000)
	bs := map[uint32]bool{}
	ap := map[uint32]bool{}
	var cellTests, wifiTests int
	for _, r := range records {
		if r.Tech == TechWiFi {
			ap[r.StationID] = true
			wifiTests++
		} else {
			bs[r.StationID] = true
			cellTests++
		}
	}
	// Base stations are shared: many tests per BS. APs are nearly private.
	testsPerBS := float64(cellTests) / float64(len(bs))
	testsPerAP := float64(wifiTests) / float64(len(ap))
	if testsPerBS < 1.02 {
		t.Errorf("tests per BS = %.2f, want visible sharing", testsPerBS)
	}
	if testsPerAP >= testsPerBS {
		t.Errorf("APs (%.2f tests each) should be less shared than BSes (%.2f)",
			testsPerAP, testsPerBS)
	}
}
