// Command btsbench regenerates every table and figure of the paper's
// evaluation and prints a paper-vs-measured report (the source of
// EXPERIMENTS.md).
//
// Usage:
//
//	btsbench [-quick] [-seed N] [-workers 0] [-only fig12,fig22,cost]
//
// Without -only it runs all experiments in order. -quick shrinks record
// counts and campaign sizes for a fast smoke run. The corpus comes from the
// sharded deterministic generator, so -workers changes only how fast it is
// built, never its contents.
//
//lint:allow walltime benchmark harness reports real elapsed time
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"sort"
	"strings"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/analysis"
	"github.com/mobilebandwidth/swiftest/internal/baseline"
	"github.com/mobilebandwidth/swiftest/internal/core"
	"github.com/mobilebandwidth/swiftest/internal/dataset"
	"github.com/mobilebandwidth/swiftest/internal/deploy"
	"github.com/mobilebandwidth/swiftest/internal/exper"
	"github.com/mobilebandwidth/swiftest/internal/linksim"
	"github.com/mobilebandwidth/swiftest/internal/spectrum"
	"github.com/mobilebandwidth/swiftest/internal/stats"
)

func main() {
	quick := flag.Bool("quick", false, "small record counts and campaigns")
	seed := flag.Int64("seed", 1, "base RNG seed")
	workers := flag.Int("workers", 0, "corpus generation workers (0 = GOMAXPROCS); contents are worker-invariant")
	only := flag.String("only", "", "comma-separated experiment ids (e.g. fig1,fig22,cost)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	r := &runner{ctx: ctx, seed: *seed, workers: *workers}
	if *quick {
		r.records = 150000
		r.pairN = 40
		r.threeWayN = 20
		r.utilDays = 3
	} else {
		r.records = 600000
		r.pairN = 150
		r.threeWayN = 60
		r.utilDays = 30
	}

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.TrimSpace(strings.ToLower(id))] = true
		}
	}

	type experiment struct {
		id string
		fn func(*runner)
	}
	experiments := []experiment{
		{"general", (*runner).general}, {"fig1", (*runner).fig1}, {"fig2", (*runner).fig2}, {"fig3", (*runner).fig3},
		{"fig4", (*runner).fig4}, {"tab1", (*runner).tab1}, {"fig5", (*runner).fig5and6},
		{"fig7", (*runner).fig7}, {"tab2", (*runner).tab2}, {"fig8", (*runner).fig8and9},
		{"fig10", (*runner).fig10}, {"fig11", (*runner).fig11and12},
		{"spatial", (*runner).spatial},
		{"fig13", (*runner).fig13to15}, {"fig16", (*runner).fig16},
		{"fig17", (*runner).fig17}, {"fig18", (*runner).fig18and19},
		{"fig20", (*runner).fig20to22}, {"fig23", (*runner).fig23to25},
		{"fig26", (*runner).fig26}, {"trace", (*runner).trace}, {"cost", (*runner).cost},
		{"sec7", (*runner).sec7}, {"scenarios", (*runner).scenarios},
		{"earlystop", (*runner).earlystop},
	}
	aliases := map[string]string{
		"fig6": "fig5", "fig9": "fig8", "fig12": "fig11", "fig14": "fig13",
		"fig15": "fig13", "fig19": "fig18", "fig21": "fig20", "fig22": "fig20",
		"fig24": "fig23", "fig25": "fig23",
	}
	for id, target := range aliases {
		if want[id] {
			want[target] = true
		}
	}

	start := time.Now()
	for _, e := range experiments {
		if len(want) > 0 && !want[e.id] {
			continue
		}
		if ctx.Err() != nil {
			r.fail("interrupted before %s", e.id)
			break
		}
		e.fn(r)
	}
	fmt.Printf("\nall experiments completed in %v\n", time.Since(start).Round(time.Millisecond))
	if r.failed {
		os.Exit(1)
	}
}

type runner struct {
	ctx       context.Context // cancelled on interrupt; campaigns stop between runs
	seed      int64
	workers   int
	records   int
	pairN     int
	threeWayN int
	utilDays  int
	failed    bool

	recs21, recs20 []dataset.Record
}

func (r *runner) corpus() ([]dataset.Record, []dataset.Record) {
	if r.recs21 == nil {
		r.recs21 = dataset.MustNewGenerator(dataset.Config{Year: 2021, Seed: r.seed}).
			GenerateParallel(r.records, r.workers)
		r.recs20 = dataset.MustNewGenerator(dataset.Config{Year: 2020, Seed: r.seed + 1}).
			GenerateParallel(r.records/2, r.workers)
	}
	return r.recs20, r.recs21
}

func header(title string) {
	fmt.Printf("\n## %s\n\n", title)
}

func row(label string, paper, measured string) {
	fmt.Printf("%-44s paper: %-18s measured: %s\n", label, paper, measured)
}

// general prints the §3.1 general statistics: technology shares and the
// station diversity behind the tests.
func (r *runner) general() {
	_, r21 := r.corpus()
	header("§3.1 — general statistics")
	counts := map[dataset.Tech]int{}
	stations := map[dataset.Tech]map[uint32]bool{}
	for _, rec := range r21 {
		counts[rec.Tech]++
		m := stations[rec.Tech]
		if m == nil {
			m = map[uint32]bool{}
			stations[rec.Tech] = m
		}
		m[rec.StationID] = true
	}
	total := len(r21)
	row("WiFi / 4G / 5G test shares", "89.1 % / 6.9 % / 3.8 %",
		fmt.Sprintf("%.1f %% / %.1f %% / %.1f %%",
			100*float64(counts[dataset.TechWiFi])/float64(total),
			100*float64(counts[dataset.Tech4G])/float64(total),
			100*float64(counts[dataset.Tech5G])/float64(total)))
	bs := len(stations[dataset.Tech4G]) + len(stations[dataset.Tech5G]) + len(stations[dataset.Tech3G])
	row("distinct stations (BSes vs APs)", "2.04M BSes, 4.47M APs (23.6M tests)",
		fmt.Sprintf("%d BSes, %d APs (%d tests)", bs, len(stations[dataset.TechWiFi]), total))
}

// fig1 prints the year-over-year technology averages.
func (r *runner) fig1() {
	r20, r21 := r.corpus()
	a20 := analysis.AverageByTech(r20)
	a21 := analysis.AverageByTech(r21)
	header("Figure 1 — average 4G/5G/WiFi bandwidth, 2020 vs 2021 (Mbps)")
	row("4G 2020 → 2021", "68 → 53",
		fmt.Sprintf("%.0f → %.0f", a20.Mean[dataset.Tech4G], a21.Mean[dataset.Tech4G]))
	row("5G 2020 → 2021", "343 → 305",
		fmt.Sprintf("%.0f → %.0f", a20.Mean[dataset.Tech5G], a21.Mean[dataset.Tech5G]))
	row("WiFi 2020 → 2021", "132 → 137",
		fmt.Sprintf("%.0f → %.0f", a20.Mean[dataset.TechWiFi], a21.Mean[dataset.TechWiFi]))
	row("overall cellular 2020 → 2021", "117 → 135",
		fmt.Sprintf("%.0f → %.0f", analysis.CellularAverage(r20), analysis.CellularAverage(r21)))
}

func (r *runner) fig2() {
	_, r21 := r.corpus()
	rows := analysis.ByAndroidVersion(r21)
	header("Figure 2 — average bandwidth by Android version (Mbps)")
	fmt.Printf("%-8s %8s %8s %8s\n", "version", "4G", "5G", "WiFi")
	for _, vr := range rows {
		fmt.Printf("%-8d %8.0f %8.0f %8.0f\n", vr.Version,
			vr.Mean[dataset.Tech4G], vr.Mean[dataset.Tech5G], vr.Mean[dataset.TechWiFi])
	}
	fmt.Println("paper: bandwidth rises with the Android version for every technology")
}

func (r *runner) fig3() {
	_, r21 := r.corpus()
	rows := analysis.ByISP(r21)
	header("Figure 3 — average bandwidth by ISP (Mbps)")
	fmt.Printf("%-8s %8s %8s %8s\n", "ISP", "4G", "5G", "WiFi")
	for _, ir := range rows {
		fmt.Printf("%-8s %8.0f %8.0f %8.0f\n", ir.ISP,
			ir.Mean[dataset.Tech4G], ir.Mean[dataset.Tech5G], ir.Mean[dataset.TechWiFi])
	}
	fmt.Println("paper: similar 4G across ISPs; ISP-3 leads 5G and WiFi; ISP-4 5G lowest (700 MHz band)")
}

func (r *runner) fig4() {
	_, r21 := r.corpus()
	d := analysis.TechDistribution(r21, dataset.Tech4G)
	header("Figure 4 — 4G bandwidth distribution")
	row("median / mean / max (Mbps)", "22 / 53 / 813",
		fmt.Sprintf("%.0f / %.0f / %.0f", d.Median, d.Mean, d.Max))
	row("share below 10 Mbps", "26.3 %", fmt.Sprintf("%.1f %%", 100*d.FractionBelow(10)))
	row("share above 300 Mbps (LTE-A)", "6.8 % avg 403", fmt.Sprintf("%.1f %% avg %.0f",
		100*d.FractionAbove(300), d.MeanAbove(300)))
}

func (r *runner) tab1() {
	header("Table 1 — the nine LTE bands")
	fmt.Printf("%-6s %-18s %-10s %s\n", "band", "DL spectrum (MHz)", "max chan", "ISPs")
	for _, b := range spectrum.LTEBands() {
		var isps []string
		for _, i := range b.ISPs {
			isps = append(isps, i.String())
		}
		fmt.Printf("%-6s %5.0f – %-10.0f %6.0f MHz %s\n",
			b.Name, b.DLLowMHz, b.DLHighMHz, b.MaxChannelMHz, strings.Join(isps, ", "))
	}
	row("refarmed share of H-Band spectrum", "58.2 %",
		fmt.Sprintf("%.1f %%", 100*spectrum.RefarmedHBandFraction()))
}

func (r *runner) fig5and6() {
	_, r21 := r.corpus()
	rows := analysis.ByBand(r21, spectrum.LTE)
	header("Figures 5 & 6 — LTE per-band bandwidth and load")
	fmt.Printf("%-6s %10s %10s %8s\n", "band", "mean Mbps", "tests", "H-band")
	for _, br := range rows {
		note := ""
		if br.Biased {
			note = " (biased: tiny sample)"
		}
		fmt.Printf("%-6s %10.1f %10d %8v%s\n", br.Band.Name, br.Mean, br.Count, br.HBand, note)
	}
	h, top, name := analysis.HBandShare(rows)
	row("H-band test share", "85.6 %", fmt.Sprintf("%.1f %%", 100*h))
	row("busiest band", "B3 at 55 %", fmt.Sprintf("%s at %.0f %%", name, 100*top))
}

func (r *runner) fig7() {
	_, r21 := r.corpus()
	d := analysis.TechDistribution(r21, dataset.Tech5G)
	header("Figure 7 — 5G bandwidth distribution")
	row("median / mean / max (Mbps)", "273 / 303 / 1032",
		fmt.Sprintf("%.0f / %.0f / %.0f", d.Median, d.Mean, d.Max))
}

func (r *runner) tab2() {
	header("Table 2 — the five 5G bands")
	fmt.Printf("%-6s %-18s %-10s %-22s %s\n", "band", "DL spectrum (MHz)", "max chan", "refarmed from (width)", "ISPs")
	for _, b := range spectrum.NRBands() {
		var isps []string
		for _, i := range b.ISPs {
			isps = append(isps, i.String())
		}
		ref := "dedicated"
		if b.IsRefarmed() {
			ref = fmt.Sprintf("%s (%.0f MHz)", b.RefarmedFrom, b.ContiguousRefarmedMHz)
		}
		fmt.Printf("%-6s %5.0f – %-10.0f %6.0f MHz %-22s %s\n",
			b.Name, b.DLLowMHz, b.DLHighMHz, b.MaxChannelMHz, ref, strings.Join(isps, ", "))
	}
}

func (r *runner) fig8and9() {
	_, r21 := r.corpus()
	rows := analysis.ByBand(r21, spectrum.NR)
	header("Figures 8 & 9 — 5G per-band bandwidth and load")
	fmt.Printf("%-6s %10s %10s %10s\n", "band", "mean Mbps", "tests", "refarmed")
	for _, br := range rows {
		fmt.Printf("%-6s %10.1f %10d %10v\n", br.Band.Name, br.Mean, br.Count, br.Band.IsRefarmed())
	}
	fmt.Println("paper: N78 332, N41 312, N1 103, N28 113 Mbps; N78 carries most tests; N79 ≈ 3 tests")
}

func (r *runner) fig10() {
	_, r21 := r.corpus()
	rows := analysis.Diurnal(r21, dataset.Tech5G)
	header("Figure 10 — 5G diurnal pattern (tests/hour share, mean Mbps)")
	var total int
	for _, dr := range rows {
		total += dr.Tests
	}
	for h := 0; h < 24; h += 2 {
		a, b := rows[h], rows[h+1]
		share := float64(a.Tests+b.Tests) / float64(total) * 100
		mean := (a.Mean*float64(a.Tests) + b.Mean*float64(b.Tests)) / float64(a.Tests+b.Tests)
		fmt.Printf("%02d–%02dh  load %5.1f %%  mean %6.0f Mbps\n", h, h+2, share, mean)
	}
	fmt.Println("paper: bottom 276 Mbps at 21–23 h (BS sleeping), peak 334 at 3–5 h, 308 at 15–17 h")
}

func (r *runner) fig11and12() {
	_, r21 := r.corpus()
	rows5 := analysis.ByRSSLevel(r21, dataset.Tech5G)
	rows4 := analysis.ByRSSLevel(r21, dataset.Tech4G)
	header("Figures 11 & 12 — 5G RSS level vs SNR and bandwidth")
	fmt.Printf("%-6s %10s %12s %12s\n", "level", "SNR dB", "5G Mbps", "4G Mbps")
	for i := range rows5 {
		fmt.Printf("%-6d %10.1f %12.0f %12.0f\n",
			rows5[i].Level, rows5[i].MeanSNR, rows5[i].MeanBW, rows4[i].MeanBW)
	}
	fmt.Println("paper: 5G rises 204→314 through level 4 then drops at level 5; 4G stays monotone")
}

// spatial prints the §3.1 spatial-disparity findings.
func (r *runner) spatial() {
	_, r21 := r.corpus()
	header("§3.1 — spatial disparity")
	lo4, hi4, _ := analysis.CityRange(r21, dataset.Tech4G, 30)
	lo5, hi5, _ := analysis.CityRange(r21, dataset.Tech5G, 30)
	loW, hiW, _ := analysis.CityRange(r21, dataset.TechWiFi, 30)
	row("per-city 4G range (Mbps)", "28–119", fmt.Sprintf("%.0f–%.0f", lo4, hi4))
	row("per-city 5G range (Mbps)", "113–428", fmt.Sprintf("%.0f–%.0f", lo5, hi5))
	row("per-city WiFi range (Mbps)", "83–256", fmt.Sprintf("%.0f–%.0f", loW, hiW))
	row("urban/rural 4G ratio", "≈1.24", fmt.Sprintf("%.2f", analysis.UrbanRuralRatio(r21, dataset.Tech4G)))
	row("urban/rural 5G ratio", "≈1.33", fmt.Sprintf("%.2f", analysis.UrbanRuralRatio(r21, dataset.Tech5G)))
	row("cities with unbalanced 4G/5G", "41 %",
		fmt.Sprintf("%.0f %%", 100*analysis.UnbalancedCityShare(r21, 20)))
}

func (r *runner) fig13to15() {
	_, r21 := r.corpus()
	header("Figures 13–15 — WiFi bandwidth by standard and radio band (Mbps)")
	all := analysis.WiFiDistributions(r21, nil)
	g24, g5 := dataset.Band24GHz, dataset.Band5GHz
	on24 := analysis.WiFiDistributions(r21, &g24)
	on5 := analysis.WiFiDistributions(r21, &g5)
	fmt.Printf("%-10s %16s %16s %16s\n", "standard", "overall", "2.4 GHz", "5 GHz")
	for _, std := range []int{4, 5, 6} {
		line := fmt.Sprintf("WiFi %d    ", std)
		for _, bd := range []analysis.WiFiBreakdown{all, on24, on5} {
			if d, ok := bd.ByStandard[std]; ok && d.Count > 0 {
				line += fmt.Sprintf(" mean %4.0f med %4.0f", d.Mean, d.Median)
			} else {
				line += fmt.Sprintf("%17s", "—")
			}
		}
		fmt.Println(line)
	}
	fmt.Println("paper: overall 59/208/345; 2.4 GHz 39/—/83; 5 GHz 195/208/351 (WiFi4 ≈ WiFi5 on 5 GHz)")
	row("≤200 Mbps broadband plans, all WiFi", "≈64 %",
		fmt.Sprintf("%.0f %%", 100*analysis.PlanShareAtOrBelow(r21, 200, 0)))
	row("≤200 Mbps broadband plans, WiFi 6", "≈39 %",
		fmt.Sprintf("%.0f %%", 100*analysis.PlanShareAtOrBelow(r21, 200, 6)))
}

func (r *runner) fig16() {
	_, r21 := r.corpus()
	header("Figure 16 — WiFi 5 bandwidth PDF (multi-modal Gaussian)")
	res, err := analysis.BandwidthPDF(r21, analysis.WiFiStandardFilter(5), 1000, 5, 4000, r.seed)
	if err != nil {
		r.fail("fig16: %v", err)
		return
	}
	fmt.Printf("fitted %d modes: %v\n", res.Modes, res.Model)
	fmt.Println("paper: modes cluster near 100× broadband plan rates (100, 300, 500 Mbps)")
}

func (r *runner) fig17() {
	header("Figure 17 — TCP slow-start/ramp time by congestion control (s)")
	buckets := []float64{100, 300, 500, 700, 900, 1100}
	points := exper.SlowStartSweep(buckets, 3, r.seed)
	byAlg := map[string]map[float64]time.Duration{}
	for _, p := range points {
		if byAlg[p.Algorithm] == nil {
			byAlg[p.Algorithm] = map[float64]time.Duration{}
		}
		byAlg[p.Algorithm][p.BucketMbps] = p.MeanRamp
	}
	fmt.Printf("%-8s", "Mbps")
	for _, b := range buckets {
		fmt.Printf("%8.0f", b)
	}
	fmt.Println()
	for _, alg := range []string{"cubic", "reno", "bbr"} {
		fmt.Printf("%-8s", alg)
		for _, b := range buckets {
			fmt.Printf("%8.2f", byAlg[alg][b].Seconds())
		}
		fmt.Println()
	}
	fmt.Println("paper: Cubic worst, BBR best (≈2 s at 100 Mbps, ≈4 s at 1 Gbps); grows with bandwidth")
}

func (r *runner) fig18and19() {
	_, r21 := r.corpus()
	header("Figures 18 & 19 — 4G and 5G bandwidth PDFs (multi-modal Gaussian)")
	for tech, hi := range map[dataset.Tech]float64{dataset.Tech4G: 500, dataset.Tech5G: 1000} {
		res, err := analysis.BandwidthPDF(r21, analysis.TechFilter(tech), hi, 5, 4000, r.seed)
		if err != nil {
			r.fail("fig18/19 %v: %v", tech, err)
			continue
		}
		fmt.Printf("%-5s fitted %d modes: %v\n", tech, res.Modes, res.Model)
	}
	fmt.Println("paper: both technologies follow multi-modal Gaussian distributions (Eq. 1)")
}

func (r *runner) fig20to22() {
	header("Figures 20–22 — Swiftest vs BTS-APP back-to-back campaigns")
	paperDur := map[dataset.Tech]string{
		dataset.Tech4G: "mean 1.05 med 0.79 max 4.24", dataset.Tech5G: "mean 0.95 med 0.76 max 4.01",
		dataset.TechWiFi: "mean 0.99 med 0.75 max 4.49",
	}
	paperData := map[dataset.Tech]string{
		dataset.Tech4G: "8.2×", dataset.Tech5G: "9.0× (289→32 MB)", dataset.TechWiFi: "8.4×",
	}
	var allPairs []exper.PairResult
	for i, tech := range []dataset.Tech{dataset.Tech4G, dataset.Tech5G, dataset.TechWiFi} {
		pairs, err := exper.PairCampaign(r.ctx, tech, r.pairN, r.seed+int64(i)*31)
		if err != nil {
			r.fail("fig20 %v: %v", tech, err)
			continue
		}
		allPairs = append(allPairs, pairs...)
		d := exper.SwiftestDurations(pairs)
		du := exper.AverageDataUsage(pairs)
		row(fmt.Sprintf("%v duration (s)", tech), paperDur[tech],
			fmt.Sprintf("mean %.2f med %.2f max %.2f", d.Mean.Seconds(), d.Median.Seconds(), d.Max.Seconds()))
		row(fmt.Sprintf("%v data usage", tech), paperData[tech],
			fmt.Sprintf("%.1f× (%.0f→%.0f MB)", du.Ratio, du.BTSAppMB, du.SwiftestMB))
	}
	d := exper.SwiftestDurations(allPairs)
	dev := exper.Deviations(allPairs)
	row("tests within 1 s incl. 0.2 s ping", "55 %", fmt.Sprintf("%.0f %%", 100*d.WithinOneSecond))
	row("mean duration incl. ping (s)", "1.19", fmt.Sprintf("%.2f", d.IncludesPingMean.Seconds()))
	row("deviation mean / median / max", "5.1 % / 3.0 % / 56.9 %",
		fmt.Sprintf("%.1f %% / %.1f %% / %.1f %%", 100*dev.Mean, 100*dev.Median, 100*dev.Max))
	row("pairs deviating >10 % / >30 %", "16 % / 0.7 %",
		fmt.Sprintf("%.0f %% / %.1f %%", 100*dev.Above10Pct, 100*dev.Above30Pct))
}

func (r *runner) fig23to25() {
	header("Figures 23–25 — FAST vs FastBTS vs Swiftest")
	techs := []dataset.Tech{dataset.Tech4G, dataset.Tech5G, dataset.TechWiFi}
	for i, tech := range techs {
		groups, err := exper.ThreeWayCampaign(r.ctx, tech, r.threeWayN, r.seed+int64(i)*53)
		if err != nil {
			r.fail("fig23 %v: %v", tech, err)
			continue
		}
		cmp := exper.CompareBTSes(groups)
		fmt.Printf("%v:\n", tech)
		for _, sys := range []string{"fast", "fastbts", "swiftest"} {
			fmt.Printf("  %-9s time %6.2f s  data %7.1f MB  accuracy %.2f\n",
				sys, cmp.MeanTime[sys].Seconds(), cmp.MeanDataMB[sys], cmp.MeanAccuracy[sys])
		}
	}
	fmt.Println("paper: Swiftest 2.9–16.5× faster, 3–16.7× lighter, 8–12 % more accurate;")
	fmt.Println("       FAST ≈13.5 s / 295 MB; FastBTS least accurate (0.79)")
}

func (r *runner) fig26() {
	header("Figure 26 — Swiftest server utilization over the evaluation month")
	plan, err := deploy.PlanPurchase(deploy.SyntheticCatalogue(), 1860, 0.075, deploy.PlanOptions{MinServers: 20})
	if err != nil {
		r.fail("fig26 plan: %v", err)
		return
	}
	model, err := dataset.TechModel(dataset.Tech5G, 2021)
	if err != nil {
		r.fail("fig26 model: %v", err)
		return
	}
	rng := rand.New(rand.NewSource(r.seed))
	_ = rng
	utils, err := deploy.SimulateUtilization(plan, deploy.UtilizationOptions{
		Days:        r.utilDays,
		TestsPerDay: 10000,
		DrawBandwidth: func(rng *rand.Rand) float64 {
			return model.Sample(rng)
		},
		Seed: r.seed,
	})
	if err != nil {
		r.fail("fig26 sim: %v", err)
		return
	}
	s := stats.NewSample(utils)
	row("median / mean utilization", "4.8 % / 8.2 %",
		fmt.Sprintf("%.1f %% / %.1f %%", s.Median(), s.Mean()))
	row("P99 / P99.9 / max", "45 % / 73.2 % / 135.3 %",
		fmt.Sprintf("%.0f %% / %.0f %% / %.0f %%", s.Quantile(0.99), s.Quantile(0.999), s.Max()))
}

// trace regenerates §5.2's over-provisioning observation.
func (r *runner) trace() {
	header("§5.2 — legacy fleet over-provisioning")
	model, err := dataset.TechModel(dataset.Tech5G, 2021)
	if err != nil {
		r.fail("trace model: %v", err)
		return
	}
	model4, err := dataset.TechModel(dataset.Tech4G, 2021)
	if err != nil {
		r.fail("trace model: %v", err)
		return
	}
	days := 2
	if r.utilDays > 7 {
		days = 7
	}
	tr, err := deploy.GenerateTrace(deploy.TraceOptions{
		Days:        days,
		TestsPerDay: 200000,
		DrawBandwidth: func(rng *rand.Rand) float64 {
			if rng.Float64() < 0.35 {
				return model.Sample(rng)
			}
			return model4.Sample(rng)
		},
		Seed: r.seed,
	})
	if err != nil {
		r.fail("trace: %v", err)
		return
	}
	sum, err := deploy.SummarizeTrace(tr, deploy.LegacyFleetMbps)
	if err != nil {
		r.fail("trace summary: %v", err)
		return
	}
	row("time below 5 % of fleet capacity", "98 %", fmt.Sprintf("%.1f %%", 100*sum.TimeBelow5Pct))
	row("fleet capacity vs mean requirement", "—",
		fmt.Sprintf("%.0f Mbps vs %.0f Mbps (peak %.0f)", sum.FleetMbps, sum.MeanMbps, sum.PeakMbps))
}

func (r *runner) cost() {
	header("§5.3 — backend cost: Swiftest fleet vs BTS-APP allocation")
	cat := deploy.SyntheticCatalogue()
	plan, err := deploy.PlanPurchase(cat, 1860, 0.075, deploy.PlanOptions{MinServers: 20})
	if err != nil {
		r.fail("cost plan: %v", err)
		return
	}
	legacy, err := deploy.LegacyBTSAppFleet(cat)
	if err != nil {
		r.fail("cost legacy: %v", err)
		return
	}
	var parts []string
	for _, pu := range plan.Purchases {
		parts = append(parts, fmt.Sprintf("%d × %.0f Mbps", pu.Count, pu.Config.BandwidthMbps))
	}
	sort.Strings(parts)
	row("Swiftest fleet", "20 × 100 Mbps", strings.Join(parts, ", "))
	row("BTS-APP allocation", "50 × 1 Gbps",
		fmt.Sprintf("%d servers, %.0f Mbps", legacy.Servers(), legacy.TotalMbps))
	row("monthly cost ratio", "≈15×",
		fmt.Sprintf("%.1f× ($%.0f vs $%.0f)", legacy.MonthlyCost/plan.MonthlyCost,
			legacy.MonthlyCost, plan.MonthlyCost))
	placements, err := deploy.PlaceServers(plan, nil)
	if err != nil {
		r.fail("cost place: %v", err)
		return
	}
	var placed []string
	for _, p := range placements {
		placed = append(placed, fmt.Sprintf("%s:%d", p.Domain, len(p.Servers)))
	}
	fmt.Printf("placement across IXP domains: %s\n", strings.Join(placed, " "))
}

// sec7 quantifies the §7 design-choice discussion: the UDP engine vs the
// TCP-compatible variant, and static refarming vs dynamic spectrum sharing.
func (r *runner) sec7() {
	header("§7 — design choices")
	model, err := dataset.TechModel(dataset.Tech5G, 2021)
	if err != nil {
		r.fail("sec7: %v", err)
		return
	}
	calm := func(seed int64) *linksim.Link {
		return linksim.MustNew(linksim.Config{
			CapacityMbps: 300, RTT: 30 * time.Millisecond, Fluctuation: 0.005,
		}, seed)
	}
	var udp, tcp float64
	const reps = 10
	for i := int64(0); i < reps; i++ {
		link := calm(i)
		p := core.NewSimProbe(link)
		res, err := core.RunContext(r.ctx, p, core.Config{Model: model})
		p.Close()
		if err != nil {
			r.fail("sec7 udp: %v", err)
			return
		}
		udp += res.Duration.Seconds()
		rep := (&baseline.TCPSwiftest{Model: model}).Run(calm(i + 1000))
		tcp += rep.Duration.Seconds()
	}
	row("UDP vs TCP-variant mean duration", "UDP chosen for simplicity",
		fmt.Sprintf("%.2f s vs %.2f s", udp/reps, tcp/reps))

	band, _ := spectrum.ByName("B41")
	full := spectrum.Capacity(band.UsableContiguousMHz(), 20, 0.65)
	var lteD, nrD []float64
	for h := 0; h < 24; h++ {
		day := float64(h) / 24
		lteD = append(lteD, full*(0.55-0.35*day))
		nrD = append(nrD, full*(0.15+0.55*day))
	}
	st, dy, err := spectrum.CompareRefarming(
		spectrum.StaticSplit{Band: band, NRFraction: 0.5}, lteD, nrD, 20, 0.65)
	if err != nil {
		r.fail("sec7 dss: %v", err)
		return
	}
	row("served load: static split vs DSS", "both can degrade 4G+5G",
		fmt.Sprintf("%.1f %% vs %.1f %% under a diurnal demand swing",
			100*st.ServedFraction, 100*dy.ServedFraction))
	plan, err := spectrum.PlanRefarming(spectrum.StudyRefarmCandidates(), 250, 0.30)
	if err != nil {
		r.fail("sec7 refarm: %v", err)
		return
	}
	row("optimal refarming (§4 planner)", "spare B3, take wide bands",
		fmt.Sprintf("%v → %.0f MHz NR, %.0f %% load displaced",
			plan.Refarmed, plan.TotalNRMHz, 100*plan.DisplacedLoad))
}

// scenarios sweeps the RAN profile library with the campaign runner: how
// the termination algorithms hold up under the multi-state link dynamics
// (fades, handovers, sleep, congestion) the paper's drive tests observed.
func (r *runner) scenarios() {
	header("scenario library — RAN profile campaign (profiles × algorithms × fault plans)")
	runs := 3
	if r.pairN <= 40 { // -quick
		runs = 1
	}
	rep, err := exper.RunCampaign(r.ctx, exper.CampaignConfig{
		Runs:    runs,
		Seed:    r.seed,
		Workers: r.workers,
	})
	if err != nil {
		r.fail("scenarios: %v", err)
		return
	}
	// Per-algorithm aggregates across the whole sweep.
	type agg struct {
		acc, durMS, dataMB float64
		cells              int
	}
	byAlg := map[string]*agg{}
	for _, s := range rep.Scenarios {
		a := byAlg[s.Algorithm]
		if a == nil {
			a = &agg{}
			byAlg[s.Algorithm] = a
		}
		a.acc += s.MeanAccuracy
		a.durMS += s.MeanDurationMS
		a.dataMB += s.MeanDataMB
		a.cells++
	}
	for _, alg := range rep.Algorithms {
		a := byAlg[alg]
		if a == nil || a.cells == 0 {
			continue
		}
		n := float64(a.cells)
		row(alg+" across scenario sweep", "accuracy under RAN dynamics",
			fmt.Sprintf("%.0f%% accuracy, %.2f s, %.1f MB mean over %d cells",
				100*a.acc/n, a.durMS/n/1e3, a.dataMB/n, a.cells))
	}
	if err := rep.WriteTable(os.Stdout); err != nil {
		r.fail("scenarios table: %v", err)
	}
}

// earlystop traces the learned-termination front: the §5.1 crossing
// baseline versus the earlystop policy at a sweep of stop thresholds, every
// policy on identical seeded links against fault-free flooding ground truth,
// so accuracy/duration/data deltas measure the policy alone. Campaign cells
// are paired the same way but keyed by profile, not by (profile, fault plan):
// the two sweeps run the same kind of link, not the same links.
func (r *runner) earlystop() {
	header("learned early termination — paired front (crossing vs earlystop thresholds)")
	cfg := exper.EvalConfig{
		Runs:       3,
		Seed:       r.seed,
		Thresholds: []float64{0.7, 0.75, 0.85, 0.9},
	}
	if r.pairN <= 40 { // -quick
		cfg.Profiles = []string{"4g-static", "5g-drive", "wifi-cafe"}
		cfg.Runs = 1
		cfg.Thresholds = []float64{0.6}
	}
	rep, err := exper.Evaluate(r.ctx, cfg)
	if err != nil {
		r.fail("earlystop: %v", err)
		return
	}
	for _, p := range rep.Points {
		label := p.Policy
		if p.Policy == "earlystop" {
			label = fmt.Sprintf("earlystop @ %.2f", p.Threshold)
		}
		row(label, "TURBOTEST: less is enough",
			fmt.Sprintf("%.1f%% accuracy, %.2f s, %.1f MB, %d/%d early stops",
				100*p.MeanAccuracy, p.MeanDurationMS/1e3, p.MeanDataMB, p.EarlyStops, p.Runs))
	}
}

func (r *runner) fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "FAIL: "+format+"\n", args...)
	r.failed = true
}
