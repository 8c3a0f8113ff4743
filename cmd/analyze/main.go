// Command analyze computes the §3 measurement findings from a JSONL dataset
// produced by cmd/datasetgen (or any source emitting the same record
// schema): per-technology averages and distributions, per-band statistics,
// the diurnal pattern, RSS correlations, WiFi breakdowns, and fitted
// multi-modal bandwidth models.
//
// Usage:
//
//	analyze -i records.jsonl [-report tech|bands|diurnal|rss|wifi|models|all] [-workers 0]
//
// All figure-level reports are computed from one single-pass Study
// aggregation, fanned out across -workers shards and merged.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/mobilebandwidth/swiftest/internal/analysis"
	"github.com/mobilebandwidth/swiftest/internal/dataset"
	"github.com/mobilebandwidth/swiftest/internal/spectrum"
)

func main() {
	in := flag.String("i", "-", "input JSONL file (\"-\" for stdin)")
	report := flag.String("report", "all", "report: tech, bands, diurnal, rss, wifi, models or all")
	seed := flag.Int64("seed", 1, "RNG seed for model fitting")
	workers := flag.Int("workers", 0, "aggregation workers (0 = GOMAXPROCS)")
	modelsOut := flag.String("models-out", "", "directory to write fitted bandwidth models as JSON (for swiftest test -model)")
	flag.Parse()

	if err := run(*in, *report, *seed, *workers, *modelsOut); err != nil {
		fmt.Fprintln(os.Stderr, "analyze:", err)
		os.Exit(1)
	}
}

func run(in, report string, seed int64, workers int, modelsOut string) error {
	r := os.Stdin
	if in != "-" {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	records, err := dataset.ReadJSONL(r)
	if err != nil {
		return err
	}
	if len(records) == 0 {
		return fmt.Errorf("no records in %s", in)
	}
	fmt.Printf("%d records\n", len(records))

	study := analysis.Fanout(records, workers, analysis.NewStudy)

	reports := []struct {
		name string
		fn   func(*analysis.Study)
	}{{"tech", reportTech}, {"bands", reportBands}, {"diurnal", reportDiurnal}, {"rss", reportRSS}, {"wifi", reportWiFi}}
	for _, r := range reports {
		if report == "all" || report == r.name {
			r.fn(study)
		}
	}
	if report == "all" || report == "models" {
		return reportModels(records, seed, modelsOut)
	}
	return nil
}

func reportTech(study *analysis.Study) {
	fmt.Println("\n# per-technology averages (Figure 1)")
	avg := study.Tech.Snapshot()
	for _, tech := range []dataset.Tech{dataset.Tech3G, dataset.Tech4G, dataset.Tech5G, dataset.TechWiFi} {
		if n := avg.Count[tech]; n > 0 {
			fmt.Printf("%-5s mean %7.1f Mbps over %d tests\n", tech, avg.Mean[tech], n)
		}
	}
	for _, tech := range []dataset.Tech{dataset.Tech4G, dataset.Tech5G} {
		d := study.Dist.Snapshot(tech)
		if d.Count == 0 {
			continue
		}
		fmt.Printf("%-5s median %6.1f  mean %6.1f  max %7.1f (Figures 4/7)\n",
			tech, d.Median, d.Mean, d.Max)
		fmt.Printf("%v bandwidth CDF (Mbps):\n%s", tech, cdfGrid(d.CDF, 56, 10))
	}
}

func reportBands(study *analysis.Study) {
	fmt.Println("\n# per-band statistics (Figures 5/6 and 8/9)")
	for _, gen := range []spectrum.Generation{spectrum.LTE, spectrum.NR} {
		var chart []barRow
		for _, br := range study.Band.Snapshot(gen) {
			if br.Count > 0 {
				chart = append(chart, barRow{fmt.Sprintf("%v %-4s (%d tests)", gen, br.Band.Name, br.Count), br.Mean})
			}
		}
		fmt.Print(barChart(chart, "Mbps", 36))
	}
	h, top, name := analysis.HBandShare(study.Band.Snapshot(spectrum.LTE))
	fmt.Printf("LTE H-band share %.1f %%, busiest band %s (%.0f %%)\n", 100*h, name, 100*top)
}

func reportDiurnal(study *analysis.Study) {
	fmt.Println("\n# 5G diurnal pattern (Figure 10)")
	var loads, means []float64
	for _, row := range study.Diurnal.Snapshot(dataset.Tech5G) {
		if row.Tests == 0 {
			continue
		}
		fmt.Printf("%02dh  %6d tests  mean %6.1f Mbps\n", row.Hour, row.Tests, row.Mean)
		loads = append(loads, float64(row.Tests))
		means = append(means, row.Mean)
	}
	fmt.Printf("load by hour      %s\n", sparkline(loads))
	fmt.Printf("bandwidth by hour %s\n", sparkline(means))
}

func reportRSS(study *analysis.Study) {
	fmt.Println("\n# RSS level vs SNR and bandwidth (Figures 11/12)")
	rows5 := study.RSS.Snapshot(dataset.Tech5G)
	rows4 := study.RSS.Snapshot(dataset.Tech4G)
	for i := range rows5 {
		fmt.Printf("level %d  SNR %5.1f dB  5G %6.1f Mbps  4G %6.1f Mbps\n",
			rows5[i].Level, rows5[i].MeanSNR, rows5[i].MeanBW, rows4[i].MeanBW)
	}
}

func reportWiFi(study *analysis.Study) {
	fmt.Println("\n# WiFi by standard and radio (Figures 13–15)")
	all := study.WiFi.Snapshot()
	for _, std := range []int{4, 5, 6} {
		if d, ok := all.ByStandard[std]; ok {
			fmt.Printf("WiFi %d  mean %6.1f  median %6.1f  max %7.1f  (%d tests)\n",
				std, d.Mean, d.Median, d.Max, d.Count)
		}
	}
	fmt.Printf("≤200 Mbps broadband plans: %.0f %% overall, %.0f %% among WiFi 6 users\n",
		100*study.WiFi.PlanShareAtOrBelow(200, 0),
		100*study.WiFi.PlanShareAtOrBelow(200, 6))
}

func reportModels(records []dataset.Record, seed int64, modelsOut string) error {
	fmt.Println("\n# fitted multi-modal bandwidth models (Figures 16/18/19, Eq. 1)")
	fits := []struct {
		name   string
		filter analysis.Filter
		hi     float64
	}{
		{"4G", analysis.TechFilter(dataset.Tech4G), 500},
		{"5G", analysis.TechFilter(dataset.Tech5G), 1000},
		{"WiFi5", analysis.WiFiStandardFilter(5), 1000},
	}
	for _, f := range fits {
		res, err := analysis.BandwidthPDF(records, f.filter, f.hi, 5, 4000, seed)
		if err != nil {
			fmt.Printf("%-6s %v\n", f.name, err)
			continue
		}
		fmt.Printf("%-6s %d modes: %v\n", f.name, res.Modes, res.Model)
		if modelsOut != "" {
			data, err := json.MarshalIndent(res.Model, "", "  ")
			if err != nil {
				return fmt.Errorf("encoding %s model: %w", f.name, err)
			}
			path := filepath.Join(modelsOut, strings.ToLower(f.name)+"-model.json")
			if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Printf("       wrote %s\n", path)
		}
	}
	return nil
}
