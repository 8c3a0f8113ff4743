// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation, plus ablation benches for the design choices DESIGN.md
// calls out. Each bench regenerates its experiment end to end per iteration
// (at reduced scale — cmd/btsbench runs the full-scale versions) and reports
// the headline quantity as a custom metric so `go test -bench=.` output
// doubles as a compact paper-vs-measured table.
package swiftest_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	swiftest "github.com/mobilebandwidth/swiftest"
	"github.com/mobilebandwidth/swiftest/internal/analysis"
	"github.com/mobilebandwidth/swiftest/internal/baseline"
	"github.com/mobilebandwidth/swiftest/internal/cc"
	"github.com/mobilebandwidth/swiftest/internal/core"
	"github.com/mobilebandwidth/swiftest/internal/dataset"
	"github.com/mobilebandwidth/swiftest/internal/deploy"
	"github.com/mobilebandwidth/swiftest/internal/exper"
	"github.com/mobilebandwidth/swiftest/internal/gmm"
	"github.com/mobilebandwidth/swiftest/internal/linksim"
	"github.com/mobilebandwidth/swiftest/internal/spectrum"
	"github.com/mobilebandwidth/swiftest/internal/stats"
)

// benchRecords is the per-iteration corpus size for dataset-driven figures.
const benchRecords = 60000

func genRecords(b *testing.B, year int) []dataset.Record {
	b.Helper()
	return dataset.MustNewGenerator(dataset.Config{Year: year, Seed: 1}).Generate(benchRecords)
}

// BenchmarkFig01YearOverYear regenerates Figure 1 (average bandwidth per
// technology, 2020 vs 2021).
func BenchmarkFig01YearOverYear(b *testing.B) {
	var mean4g21 float64
	for i := 0; i < b.N; i++ {
		r20 := genRecords(b, 2020)
		r21 := genRecords(b, 2021)
		a20 := analysis.AverageByTech(r20)
		a21 := analysis.AverageByTech(r21)
		if a21.Mean[dataset.Tech4G] >= a20.Mean[dataset.Tech4G] {
			b.Fatal("4G did not decline year over year")
		}
		mean4g21 = a21.Mean[dataset.Tech4G]
	}
	b.ReportMetric(mean4g21, "4G2021_Mbps(paper53)")
}

// BenchmarkFig02AndroidVersion regenerates Figure 2.
func BenchmarkFig02AndroidVersion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := analysis.ByAndroidVersion(genRecords(b, 2021))
		if len(rows) < 6 {
			b.Fatal("missing Android versions")
		}
	}
}

// BenchmarkFig03ISP regenerates Figure 3.
func BenchmarkFig03ISP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := analysis.ByISP(genRecords(b, 2021))
		if len(rows) != 4 {
			b.Fatal("missing ISPs")
		}
	}
}

// BenchmarkFig04LTECDF regenerates Figure 4 (4G bandwidth CDF).
func BenchmarkFig04LTECDF(b *testing.B) {
	var median float64
	for i := 0; i < b.N; i++ {
		d := analysis.TechDistribution(genRecords(b, 2021), dataset.Tech4G)
		median = d.Median
	}
	b.ReportMetric(median, "median_Mbps(paper22)")
}

// BenchmarkTab1LTEBands validates Table 1 and the refarmed-spectrum share.
func BenchmarkTab1LTEBands(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		if len(spectrum.LTEBands()) != 9 {
			b.Fatal("Table 1 wrong")
		}
		frac = spectrum.RefarmedHBandFraction()
	}
	b.ReportMetric(frac*100, "refarmed_pct(paper58.2)")
}

// BenchmarkFig05LTEBandBandwidth regenerates Figure 5.
func BenchmarkFig05LTEBandBandwidth(b *testing.B) {
	var b3 float64
	for i := 0; i < b.N; i++ {
		rows := analysis.ByBand(genRecords(b, 2021), spectrum.LTE)
		for _, r := range rows {
			if r.Band.Name == "B3" {
				b3 = r.Mean
			}
		}
	}
	b.ReportMetric(b3, "B3_Mbps(paper56)")
}

// BenchmarkFig06LTEBandLoad regenerates Figure 6.
func BenchmarkFig06LTEBandLoad(b *testing.B) {
	var hband float64
	for i := 0; i < b.N; i++ {
		rows := analysis.ByBand(genRecords(b, 2021), spectrum.LTE)
		hband, _, _ = analysis.HBandShare(rows)
	}
	b.ReportMetric(hband*100, "hband_pct(paper85.6)")
}

// BenchmarkFig07NRCDF regenerates Figure 7 (5G bandwidth CDF).
func BenchmarkFig07NRCDF(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		d := analysis.TechDistribution(genRecords(b, 2021), dataset.Tech5G)
		mean = d.Mean
	}
	b.ReportMetric(mean, "mean_Mbps(paper303)")
}

// BenchmarkTab2NRBands validates Table 2.
func BenchmarkTab2NRBands(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bands := spectrum.NRBands()
		if len(bands) != 5 {
			b.Fatal("Table 2 wrong")
		}
	}
}

// BenchmarkFig08NRBandBandwidth regenerates Figure 8.
func BenchmarkFig08NRBandBandwidth(b *testing.B) {
	var n1 float64
	for i := 0; i < b.N; i++ {
		for _, r := range analysis.ByBand(genRecords(b, 2021), spectrum.NR) {
			if r.Band.Name == "N1" {
				n1 = r.Mean
			}
		}
	}
	b.ReportMetric(n1, "N1_Mbps(paper103)")
}

// BenchmarkFig09NRBandLoad regenerates Figure 9.
func BenchmarkFig09NRBandLoad(b *testing.B) {
	var n78Share float64
	for i := 0; i < b.N; i++ {
		rows := analysis.ByBand(genRecords(b, 2021), spectrum.NR)
		var total, n78 int
		for _, r := range rows {
			total += r.Count
			if r.Band.Name == "N78" {
				n78 = r.Count
			}
		}
		n78Share = float64(n78) / float64(total)
	}
	b.ReportMetric(n78Share*100, "N78_pct(paper~62)")
}

// BenchmarkFig10Diurnal regenerates Figure 10.
func BenchmarkFig10Diurnal(b *testing.B) {
	var night float64
	for i := 0; i < b.N; i++ {
		rows := analysis.Diurnal(genRecords(b, 2021), dataset.Tech5G)
		night = (rows[21].Mean + rows[22].Mean) / 2
	}
	b.ReportMetric(night, "night_Mbps(paper276)")
}

// BenchmarkFig11RSSSNR regenerates Figure 11.
func BenchmarkFig11RSSSNR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := analysis.ByRSSLevel(genRecords(b, 2021), dataset.Tech5G)
		for j := 1; j < len(rows); j++ {
			if rows[j].MeanSNR <= rows[j-1].MeanSNR {
				b.Fatal("SNR not monotone in RSS level")
			}
		}
	}
}

// BenchmarkFig12RSSBandwidth regenerates Figure 12 (the level-5 drop).
func BenchmarkFig12RSSBandwidth(b *testing.B) {
	var level5 float64
	for i := 0; i < b.N; i++ {
		rows := analysis.ByRSSLevel(genRecords(b, 2021), dataset.Tech5G)
		if rows[4].MeanBW >= rows[3].MeanBW {
			b.Fatal("level-5 bandwidth drop missing")
		}
		level5 = rows[4].MeanBW
	}
	b.ReportMetric(level5, "level5_Mbps(below_level4)")
}

// BenchmarkFig13WiFiCDF regenerates Figure 13.
func BenchmarkFig13WiFiCDF(b *testing.B) {
	var w6 float64
	for i := 0; i < b.N; i++ {
		d := analysis.WiFiDistributions(genRecords(b, 2021), nil)
		w6 = d.ByStandard[6].Mean
	}
	b.ReportMetric(w6, "WiFi6_Mbps(paper345)")
}

// BenchmarkFig14WiFi24GHz regenerates Figure 14.
func BenchmarkFig14WiFi24GHz(b *testing.B) {
	g := dataset.Band24GHz
	var w4 float64
	for i := 0; i < b.N; i++ {
		d := analysis.WiFiDistributions(genRecords(b, 2021), &g)
		w4 = d.ByStandard[4].Mean
	}
	b.ReportMetric(w4, "WiFi4_24G_Mbps(paper39)")
}

// BenchmarkFig15WiFi5GHz regenerates Figure 15 (WiFi4 ≈ WiFi5 on 5 GHz).
func BenchmarkFig15WiFi5GHz(b *testing.B) {
	g := dataset.Band5GHz
	var gap float64
	for i := 0; i < b.N; i++ {
		d := analysis.WiFiDistributions(genRecords(b, 2021), &g)
		gap = d.ByStandard[5].Mean - d.ByStandard[4].Mean
	}
	b.ReportMetric(gap, "WiFi5-WiFi4_gap_Mbps(paper13)")
}

// BenchmarkFig16WiFi5PDF regenerates Figure 16 (multi-modal WiFi 5 fit).
func BenchmarkFig16WiFi5PDF(b *testing.B) {
	var modes float64
	for i := 0; i < b.N; i++ {
		res, err := analysis.BandwidthPDF(genRecords(b, 2021),
			analysis.WiFiStandardFilter(5), 1000, 5, 2000, 1)
		if err != nil {
			b.Fatal(err)
		}
		modes = float64(res.Modes)
	}
	b.ReportMetric(modes, "modes(multi-modal)")
}

// BenchmarkFig17SlowStart regenerates Figure 17 (TCP ramp times).
func BenchmarkFig17SlowStart(b *testing.B) {
	var bbrAt1G float64
	for i := 0; i < b.N; i++ {
		points := exper.SlowStartSweep([]float64{100, 500, 1000}, 1, 1)
		for _, p := range points {
			if p.Algorithm == "bbr" && p.BucketMbps == 1000 {
				bbrAt1G = p.MeanRamp.Seconds()
			}
		}
	}
	b.ReportMetric(bbrAt1G, "bbr@1G_s(paper~4)")
}

// BenchmarkFig18LTEPDF regenerates Figure 18.
func BenchmarkFig18LTEPDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := analysis.BandwidthPDF(genRecords(b, 2021),
			analysis.TechFilter(dataset.Tech4G), 500, 5, 2000, 1)
		if err != nil || res.Modes < 2 {
			b.Fatalf("4G PDF: modes=%d err=%v", res.Modes, err)
		}
	}
}

// BenchmarkFig19NRPDF regenerates Figure 19.
func BenchmarkFig19NRPDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := analysis.BandwidthPDF(genRecords(b, 2021),
			analysis.TechFilter(dataset.Tech5G), 1000, 5, 2000, 1)
		if err != nil || res.Modes < 2 {
			b.Fatalf("5G PDF: modes=%d err=%v", res.Modes, err)
		}
	}
}

// benchPairs is the per-iteration campaign size for §5.3 benches.
const benchPairs = 30

// BenchmarkFig20SwiftestDuration regenerates Figure 20.
func BenchmarkFig20SwiftestDuration(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		pairs, err := exper.PairCampaign(context.Background(), dataset.Tech5G, benchPairs, 1)
		if err != nil {
			b.Fatal(err)
		}
		mean = exper.SwiftestDurations(pairs).Mean.Seconds()
	}
	b.ReportMetric(mean, "mean_s(paper0.95)")
}

// BenchmarkFig21DataUsage regenerates Figure 21.
func BenchmarkFig21DataUsage(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		pairs, err := exper.PairCampaign(context.Background(), dataset.Tech5G, benchPairs, 1)
		if err != nil {
			b.Fatal(err)
		}
		ratio = exper.AverageDataUsage(pairs).Ratio
	}
	b.ReportMetric(ratio, "ratio(paper9.0)")
}

// BenchmarkFig22Deviation regenerates Figure 22.
func BenchmarkFig22Deviation(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		pairs, err := exper.PairCampaign(context.Background(), dataset.Tech5G, benchPairs, 1)
		if err != nil {
			b.Fatal(err)
		}
		mean = exper.Deviations(pairs).Mean * 100
	}
	b.ReportMetric(mean, "mean_dev_pct(paper5.1)")
}

// benchGroups is the per-iteration three-way campaign size.
const benchGroups = 12

// BenchmarkFig23ThreeBTSTime regenerates Figure 23.
func BenchmarkFig23ThreeBTSTime(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		groups, err := exper.ThreeWayCampaign(context.Background(), dataset.Tech5G, benchGroups, 1)
		if err != nil {
			b.Fatal(err)
		}
		cmp := exper.CompareBTSes(groups)
		speedup = float64(cmp.MeanTime["fast"]) / float64(cmp.MeanTime["swiftest"])
	}
	b.ReportMetric(speedup, "fast/swiftest(paper≤16.5)")
}

// BenchmarkFig24ThreeBTSData regenerates Figure 24.
func BenchmarkFig24ThreeBTSData(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		groups, err := exper.ThreeWayCampaign(context.Background(), dataset.Tech5G, benchGroups, 1)
		if err != nil {
			b.Fatal(err)
		}
		cmp := exper.CompareBTSes(groups)
		ratio = cmp.MeanDataMB["fast"] / cmp.MeanDataMB["swiftest"]
	}
	b.ReportMetric(ratio, "fast/swiftest(paper≤16.7)")
}

// BenchmarkFig25ThreeBTSAccuracy regenerates Figure 25.
func BenchmarkFig25ThreeBTSAccuracy(b *testing.B) {
	var acc float64
	for i := 0; i < b.N; i++ {
		groups, err := exper.ThreeWayCampaign(context.Background(), dataset.Tech5G, benchGroups, 1)
		if err != nil {
			b.Fatal(err)
		}
		cmp := exper.CompareBTSes(groups)
		if cmp.MeanAccuracy["swiftest"] <= cmp.MeanAccuracy["fastbts"] {
			b.Fatal("Swiftest not more accurate than FastBTS")
		}
		acc = cmp.MeanAccuracy["fastbts"]
	}
	b.ReportMetric(acc, "fastbts_acc(paper0.79)")
}

// BenchmarkFig26Utilization regenerates Figure 26.
func BenchmarkFig26Utilization(b *testing.B) {
	plan, err := deploy.PlanPurchase(deploy.SyntheticCatalogue(), 1860, 0.075,
		deploy.PlanOptions{MinServers: 20})
	if err != nil {
		b.Fatal(err)
	}
	model, err := dataset.TechModel(dataset.Tech5G, 2021)
	if err != nil {
		b.Fatal(err)
	}
	var p99 float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		utils, err := deploy.SimulateUtilization(plan, deploy.UtilizationOptions{
			Days:          3,
			TestsPerDay:   10000,
			DrawBandwidth: func(rng *rand.Rand) float64 { return model.Sample(rng) },
			Seed:          1,
		})
		if err != nil {
			b.Fatal(err)
		}
		p99 = stats.NewSample(utils).Quantile(0.99)
	}
	b.ReportMetric(p99, "P99_pct(paper45)")
}

// BenchmarkCostPlan regenerates the §5.3 cost comparison.
func BenchmarkCostPlan(b *testing.B) {
	cat := deploy.SyntheticCatalogue()
	var ratio float64
	for i := 0; i < b.N; i++ {
		plan, err := deploy.PlanPurchase(cat, 1860, 0.075, deploy.PlanOptions{MinServers: 20})
		if err != nil {
			b.Fatal(err)
		}
		legacy, err := deploy.LegacyBTSAppFleet(cat)
		if err != nil {
			b.Fatal(err)
		}
		ratio = legacy.MonthlyCost / plan.MonthlyCost
	}
	b.ReportMetric(ratio, "cost_ratio(paper15)")
}

// BenchmarkSimulateTest is one emulated test per iteration on the input mix
// of the ledger's sim-static workload: static links drawn per technology
// round-robin, termination policy by i%4 (crossing, crossing, fastbts,
// earlystop). B/op and allocs/op show what a test costs beyond its samples.
func BenchmarkSimulateTest(b *testing.B) {
	techs := []swiftest.Tech{swiftest.Tech4G, swiftest.Tech5G, swiftest.TechWiFi}
	models := make([]*swiftest.Model, len(techs))
	for i, tech := range techs {
		m, err := swiftest.DefaultModel(tech)
		if err != nil {
			b.Fatal(err)
		}
		models[i] = m
	}
	var policies []swiftest.TerminationPolicy
	for _, name := range []string{"crossing", "crossing", "fastbts", "earlystop"} {
		p, err := swiftest.ParseTerminationPolicy(name)
		if err != nil {
			b.Fatal(err)
		}
		policies = append(policies, p)
	}
	rng := rand.New(rand.NewSource(1))
	links := make([]swiftest.LinkConfig, 1200) // a multiple of 3 and of 4: every (tech, policy) pair recurs
	for i := range links {
		d, err := exper.Scenario{Tech: techs[i%len(techs)], Model: models[i%len(techs)]}.Draw(rng)
		if err != nil {
			b.Fatal(err)
		}
		links[i] = swiftest.LinkConfig{
			CapacityMbps: d.CapacityMbps,
			RTT:          d.RTT,
			Fluctuation:  d.Fluctuation,
			LossRate:     d.Config.LossRate,
			Seed:         rng.Int63(),
		}
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := i % len(links)
		_, err := swiftest.SimulateTestContext(ctx, links[in], models[in%len(techs)], swiftest.SimulateOptions{
			SessionOptions: swiftest.SessionOptions{Terminate: policies[in%len(policies)]},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation benches (DESIGN.md design choices) ---------------------------

func benchLink(seed int64) *linksim.Link {
	return linksim.MustNew(linksim.Config{
		CapacityMbps: 300, RTT: 30 * time.Millisecond, Fluctuation: 0.01,
	}, seed)
}

func benchModel() *gmm.Model {
	m, err := dataset.TechModel(dataset.Tech5G, 2021)
	if err != nil {
		panic(err)
	}
	return m
}

// BenchmarkAblationInitialRate contrasts Swiftest's model-seeded initial
// rate with a cold start from 1 Mbps: the whole point of the data-driven
// design (§5.1).
func BenchmarkAblationInitialRate(b *testing.B) {
	model := benchModel()
	cold := gmm.MustNew(
		gmm.Component{Weight: 0.999, Mu: 1, Sigma: 0.2},
		gmm.Component{Weight: 0.0002, Mu: 2, Sigma: 0.2},
		gmm.Component{Weight: 0.0002, Mu: 4, Sigma: 0.4},
		gmm.Component{Weight: 0.0002, Mu: 8, Sigma: 0.8},
		gmm.Component{Weight: 0.0002, Mu: 16, Sigma: 1.6},
		gmm.Component{Weight: 0.0002, Mu: 32, Sigma: 3.2},
	)
	var warm, coldDur float64
	for i := 0; i < b.N; i++ {
		p1 := core.NewSimProbe(benchLink(1))
		r1, err := core.RunContext(context.Background(), p1, core.Config{Model: model})
		p1.Close()
		if err != nil {
			b.Fatal(err)
		}
		warm = r1.Duration.Seconds()

		p2 := core.NewSimProbe(benchLink(1))
		r2, err := core.RunContext(context.Background(), p2, core.Config{Model: cold})
		p2.Close()
		if err != nil {
			b.Fatal(err)
		}
		coldDur = r2.Duration.Seconds()
		if coldDur <= warm {
			b.Fatal("cold start should be slower than model-seeded start")
		}
	}
	b.ReportMetric(coldDur/warm, "cold/warm_duration")
}

// BenchmarkAblationEscalation contrasts mode escalation with fixed 1.25×
// step escalation on a fast client.
func BenchmarkAblationEscalation(b *testing.B) {
	model := benchModel()
	// A single-mode model forces pure headroom (fixed-step) escalation.
	fixed := gmm.MustNew(gmm.Component{Weight: 1, Mu: model.MostProbableMode().Rate, Sigma: 10})
	var modeSteps, fixedSteps float64
	for i := 0; i < b.N; i++ {
		link := linksim.MustNew(linksim.Config{CapacityMbps: 900, RTT: 30 * time.Millisecond, Fluctuation: 0.01}, 3)
		p1 := core.NewSimProbe(link)
		r1, err := core.RunContext(context.Background(), p1, core.Config{Model: model})
		p1.Close()
		if err != nil {
			b.Fatal(err)
		}
		modeSteps = float64(r1.RateChanges)

		link2 := linksim.MustNew(linksim.Config{CapacityMbps: 900, RTT: 30 * time.Millisecond, Fluctuation: 0.01}, 3)
		p2 := core.NewSimProbe(link2)
		r2, err := core.RunContext(context.Background(), p2, core.Config{Model: fixed})
		p2.Close()
		if err != nil {
			b.Fatal(err)
		}
		fixedSteps = float64(r2.RateChanges)
	}
	b.ReportMetric(modeSteps, "mode_escalations")
	b.ReportMetric(fixedSteps, "fixed_escalations")
}

// BenchmarkAblationConvergence sweeps the convergence threshold, showing the
// §5.1 accuracy/duration trade-off around the published 3 %.
func BenchmarkAblationConvergence(b *testing.B) {
	model := benchModel()
	var d1, d3, d10 float64
	for i := 0; i < b.N; i++ {
		for _, tc := range []struct {
			thresh float64
			out    *float64
		}{{0.01, &d1}, {0.03, &d3}, {0.10, &d10}} {
			link := linksim.MustNew(linksim.Config{CapacityMbps: 300, RTT: 30 * time.Millisecond, Fluctuation: 0.015}, 5)
			p := core.NewSimProbe(link)
			r, err := core.RunContext(context.Background(), p, core.Config{Model: model, ConvergeThreshold: tc.thresh})
			p.Close()
			if err != nil {
				b.Fatal(err)
			}
			*tc.out = r.Duration.Seconds()
		}
	}
	b.ReportMetric(d1, "dur@1pct_s")
	b.ReportMetric(d3, "dur@3pct_s")
	b.ReportMetric(d10, "dur@10pct_s")
}

// BenchmarkAblationILP measures the branch-and-bound planner at catalogue
// scale versus brute force on a trimmed instance.
func BenchmarkAblationILP(b *testing.B) {
	cat := deploy.SyntheticCatalogue()
	var nodes float64
	for i := 0; i < b.N; i++ {
		plan, err := deploy.PlanPurchase(cat, 4000, 0.075, deploy.PlanOptions{MinServers: 24})
		if err != nil {
			b.Fatal(err)
		}
		nodes = float64(plan.NodesExplored)
	}
	b.ReportMetric(nodes, "bb_nodes")
}

// BenchmarkAblationVirtualVsWall contrasts an emulated Swiftest test with
// wall-clock reality: a 10-second BTS-APP flood simulates in well under a
// millisecond.
func BenchmarkAblationVirtualVsWall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		link := benchLink(int64(i))
		rep := (&baseline.BTSApp{}).Run(link)
		if rep.Duration != 10*time.Second {
			b.Fatal("virtual test must cover 10 virtual seconds")
		}
	}
}

// BenchmarkAblationPacing sweeps the emulated sampling noise (standing in
// for token-bucket pacing granularity) against convergence time.
func BenchmarkAblationPacing(b *testing.B) {
	model := benchModel()
	var calm, rough float64
	for i := 0; i < b.N; i++ {
		for _, tc := range []struct {
			fluct float64
			out   *float64
		}{{0.002, &calm}, {0.03, &rough}} {
			link := linksim.MustNew(linksim.Config{CapacityMbps: 300, RTT: 30 * time.Millisecond, Fluctuation: tc.fluct}, 9)
			p := core.NewSimProbe(link)
			r, err := core.RunContext(context.Background(), p, core.Config{Model: model})
			p.Close()
			if err != nil {
				b.Fatal(err)
			}
			*tc.out = r.Duration.Seconds()
		}
	}
	b.ReportMetric(calm, "calm_dur_s")
	b.ReportMetric(rough, "rough_dur_s")
}

// BenchmarkAblationTCPVariant contrasts the deployed UDP Swiftest with the
// §7 TCP-compatible variant on identical links: the fairness-preserving
// design costs some duration but keeps the data-driven win over flooding.
func BenchmarkAblationTCPVariant(b *testing.B) {
	model := benchModel()
	calm := func() *linksim.Link {
		return linksim.MustNew(linksim.Config{
			CapacityMbps: 300, RTT: 30 * time.Millisecond, Fluctuation: 0.005,
		}, 11)
	}
	var udpDur, tcpDur float64
	for i := 0; i < b.N; i++ {
		link := calm()
		p := core.NewSimProbe(link)
		r, err := core.RunContext(context.Background(), p, core.Config{Model: model})
		p.Close()
		if err != nil {
			b.Fatal(err)
		}
		udpDur = r.Duration.Seconds()

		link2 := calm()
		rep := (&baseline.TCPSwiftest{Model: model}).Run(link2)
		tcpDur = rep.Duration.Seconds()
		if rep.Result <= 0 {
			b.Fatal("TCP variant produced no result")
		}
	}
	b.ReportMetric(udpDur, "udp_dur_s")
	b.ReportMetric(tcpDur, "tcp_dur_s")
}

// BenchmarkAblationDSS quantifies §7's refarming-strategy comparison:
// served-demand fraction of a static split vs dynamic spectrum sharing over
// a diurnal LTE/NR demand swing.
func BenchmarkAblationDSS(b *testing.B) {
	band, ok := spectrum.ByName("B41")
	if !ok {
		b.Fatal("B41 missing")
	}
	full := spectrum.Capacity(band.UsableContiguousMHz(), 20, 0.65)
	var lteD, nrD []float64
	for h := 0; h < 24; h++ {
		day := float64(h) / 24
		lteD = append(lteD, full*(0.55-0.35*day)) // LTE-heavy mornings
		nrD = append(nrD, full*(0.15+0.55*day))   // NR-heavy evenings
	}
	var st, dy float64
	for i := 0; i < b.N; i++ {
		s, d, err := spectrum.CompareRefarming(
			spectrum.StaticSplit{Band: band, NRFraction: 0.5}, lteD, nrD, 20, 0.65)
		if err != nil {
			b.Fatal(err)
		}
		st, dy = s.ServedFraction, d.ServedFraction
	}
	b.ReportMetric(st*100, "static_served_pct")
	b.ReportMetric(dy*100, "dss_served_pct")
}

// --- generate→aggregate engine benches -------------------------------------

// BenchmarkGenThroughput measures dataset generation: the serial stream and
// the sharded deterministic parallel stream at several worker counts.
func BenchmarkGenThroughput(b *testing.B) {
	b.Run("serial", func(b *testing.B) {
		g := dataset.MustNewGenerator(dataset.Config{Year: 2021, Seed: 1})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if len(g.Generate(benchRecords)) != benchRecords {
				b.Fatal("short generate")
			}
		}
		b.ReportMetric(float64(benchRecords)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrec/s")
	})
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("parallel/workers=%d", workers), func(b *testing.B) {
			g := dataset.MustNewGenerator(dataset.Config{Year: 2021, Seed: 1})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if len(g.GenerateParallel(benchRecords, workers)) != benchRecords {
					b.Fatal("short generate")
				}
			}
			b.ReportMetric(float64(benchRecords)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrec/s")
		})
	}
}

// BenchmarkAggPipeline measures the single-pass Study aggregation — every
// figure's state in one traversal — serial and fanned out.
func BenchmarkAggPipeline(b *testing.B) {
	recs := genRecords(b, 2021)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				study := analysis.Fanout(recs, workers, analysis.NewStudy)
				if study.Tech.Snapshot().Count[dataset.TechWiFi] == 0 {
					b.Fatal("empty study")
				}
			}
		})
	}
}

// BenchmarkWireThroughput measures the UDP message encode/decode hot path.
func BenchmarkWireThroughput(b *testing.B) {
	b.Run("cc-step", func(b *testing.B) {
		link := benchLink(1)
		flow := link.NewFlow()
		s := cc.NewSender(flow, cc.NewCubic(0))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			link.Advance()
			s.Step(linksim.Tick)
		}
	})
}
