package main

// The measurement-study face of the CLI: `swiftest dataset` emits the
// synthetic stand-in for the paper's 23.6M-test corpus, `swiftest analyze`
// computes the §3 findings from it, and `swiftest claims` checks every paper
// claim of internal/claims over one seeded corpus.

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	swiftest "github.com/mobilebandwidth/swiftest"
	"github.com/mobilebandwidth/swiftest/internal/analysis"
	"github.com/mobilebandwidth/swiftest/internal/claims"
	"github.com/mobilebandwidth/swiftest/internal/dataset"
	"github.com/mobilebandwidth/swiftest/internal/spectrum"
)

// datasetCmd emits a synthetic measurement dataset as JSONL, calibrated to
// every finding of §3 (see internal/dataset). Generation and encoding are
// sharded: record i always comes from shard i/ShardSize of the seed's
// deterministic stream, so the output bytes depend only on (-n, -year,
// -seed), never on -workers.
func datasetCmd(args []string) error {
	fs := flag.NewFlagSet("dataset", flag.ExitOnError)
	n := fs.Int("n", 1_000_000, "number of records to generate")
	year := fs.Int("year", 2021, "measurement year (2020 or 2021)")
	seed := fs.Int64("seed", 1, "RNG seed")
	workers := workersFlag(fs, "generation workers; output is identical for any value")
	out := fs.String("o", "-", "output file (\"-\" for stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	gen, err := dataset.NewGenerator(dataset.Config{Year: *year, Seed: *seed})
	if err != nil {
		return err
	}
	// Stream in shard-aligned batches to bound memory for very large n: each
	// batch is generated and JSON-encoded in parallel, then written in order.
	emit := func(w io.Writer) error {
		const batch = 16 * dataset.ShardSize
		for off := 0; off < *n; off += batch {
			records := gen.GenerateRange(off, min(batch, *n-off), *workers)
			if err := dataset.WriteJSONLParallel(w, records, *workers); err != nil {
				return err
			}
		}
		return nil
	}
	if *out == "-" {
		return emit(os.Stdout)
	}
	if err := writeFile(*out, emit); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d records for %d to %s\n", *n, *year, *out)
	return nil
}

// studyReports are analyze's figure-level sections in print order, each
// computed from one single-pass Study aggregation.
var studyReports = []struct {
	name string
	fn   func(*analysis.Study)
}{{"tech", reportTech}, {"bands", reportBands}, {"diurnal", reportDiurnal}, {"rss", reportRSS}, {"wifi", reportWiFi}}

// analyze computes the §3 findings from a JSONL dataset (from `swiftest
// dataset` or any source emitting the same record schema). The Study is
// fanned out across -workers shards and merged; the models report refits
// the bandwidth mixtures from the records themselves.
func analyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	in := fs.String("i", "-", "input JSONL file (\"-\" for stdin)")
	report := fs.String("report", "all", "report: tech, bands, diurnal, rss, wifi, models or all")
	seed := fs.Int64("seed", 1, "RNG seed for model fitting")
	workers := workersFlag(fs, "aggregation workers; output is identical for any value")
	modelsOut := fs.String("models-out", "", "directory to write fitted bandwidth models as JSON (for swiftest test -model)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	known := *report == "all" || *report == "models"
	for _, r := range studyReports {
		known = known || *report == r.name
	}
	if !known {
		return usageError{fmt.Errorf("unknown -report %q (known: tech, bands, diurnal, rss, wifi, models, all)", *report)}
	}

	r := os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
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
		return fmt.Errorf("no records in %s", *in)
	}
	fmt.Printf("%d records\n", len(records))

	study := analysis.Fanout(records, *workers, analysis.NewStudy)
	for _, r := range studyReports {
		if *report == "all" || *report == r.name {
			r.fn(study)
		}
	}
	if *report == "all" || *report == "models" {
		return reportModels(records, *seed, *modelsOut)
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
		100*study.WiFi.PlanShareAtOrBelow(0),
		100*study.WiFi.PlanShareAtOrBelow(6))
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
		res, err := analysis.BandwidthPDF(records, f.filter, f.hi, seed)
		if err != nil {
			fmt.Printf("%-6s %v\n", f.name, err)
			continue
		}
		fmt.Printf("%-6s %d modes: %v\n", f.name, res.Modes, res.Model)
		if modelsOut != "" {
			path := filepath.Join(modelsOut, strings.ToLower(f.name)+"-model.json")
			if err := swiftest.SaveModel(path, res.Model); err != nil {
				return err
			}
			fmt.Printf("       wrote %s\n", path)
		}
	}
	return nil
}

// claimsCmd measures every row of internal/claims over one seeded corpus
// and prints paper vs measured as a markdown table with its footnotes, the
// block EXPERIMENTS.md carries. A claim that fails to hold is an error.
func claimsCmd(args []string) error {
	fs := flag.NewFlagSet("claims", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "corpus seed")
	workers := workersFlag(fs, "corpus generation and §5.3 sweep workers; the output is worker-invariant")
	only := fs.String("only", "", "comma-separated row IDs or figure keys (e.g. fig4,sec5.3,fig20.ping)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rows, err := claims.Select(*only)
	if err != nil {
		return usageError{err}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	start := time.Now() //lint:allow walltime reports real elapsed time on stderr
	failed, err := claims.NewCorpus(ctx, *seed, *workers).Run(os.Stdout, rows)
	fmt.Fprintf(os.Stderr, "%d rows, %d failed %v, in %v\n", len(rows), len(failed), failed,
		time.Since(start).Round(time.Millisecond)) //lint:allow walltime reports real elapsed time on stderr
	if err != nil {
		return err
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d paper claims do not hold: %v", len(failed), failed)
	}
	return nil
}
