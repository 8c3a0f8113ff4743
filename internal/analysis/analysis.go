// Package analysis reproduces every measurement finding of §3 from a stream
// of dataset.Record values: the year-over-year averages (Figure 1), the
// Android-version and ISP breakdowns (Figures 2–3), the 4G/5G bandwidth
// CDFs (Figures 4 and 7), the per-band statistics (Figures 5/6/8/9 and
// Tables 1–2), the diurnal pattern (Figure 10), the RSS correlations
// (Figures 11–12), the WiFi breakdowns (Figures 13–15), and the multi-modal
// bandwidth PDFs (Figures 16/18/19) including a refreshed mixture model fit.
//
// Each figure is a mergeable single-pass aggregator over records
// (aggregate.go), so the same code serves the synthetic dataset, a JSONL
// dump from `swiftest dataset`, or — in a real deployment — production
// measurement records.
package analysis

import (
	"fmt"
	"math/rand"

	"github.com/mobilebandwidth/swiftest/internal/dataset"
	"github.com/mobilebandwidth/swiftest/internal/gmm"
	"github.com/mobilebandwidth/swiftest/internal/spectrum"
	"github.com/mobilebandwidth/swiftest/internal/stats"
)

// TechAverages reports mean bandwidth per technology — one bar group of
// Figure 1.
type TechAverages struct {
	Mean  map[dataset.Tech]float64
	Count map[dataset.Tech]int
}

// VersionRow is one Android version's averages (Figure 2).
type VersionRow struct {
	Version int
	Mean    map[dataset.Tech]float64
	Count   map[dataset.Tech]int
}

// ISPRow is one ISP's averages (Figure 3).
type ISPRow struct {
	ISP   spectrum.ISP
	Mean  map[dataset.Tech]float64
	Count map[dataset.Tech]int
}

// Distribution summarises one technology's bandwidth distribution
// (Figures 4, 7, 13–15).
type Distribution struct {
	Count  int
	Mean   float64
	Median float64
	Max    float64
	CDF    []stats.CDFPoint
	sample *stats.Sample
}

// FractionBelow reports the fraction of tests below x Mbps.
func (d Distribution) FractionBelow(x float64) float64 {
	if d.sample == nil {
		return 0
	}
	return d.sample.FractionBelow(x)
}

// FractionAbove reports the fraction of tests above x Mbps.
func (d Distribution) FractionAbove(x float64) float64 {
	if d.sample == nil {
		return 0
	}
	return d.sample.FractionAbove(x)
}

// MeanAbove reports the mean of tests above x Mbps.
func (d Distribution) MeanAbove(x float64) float64 {
	if d.sample == nil {
		return 0
	}
	return d.sample.MeanAbove(x)
}

func distribute(values []float64) Distribution {
	if len(values) == 0 {
		return Distribution{}
	}
	s := stats.NewSample(values)
	return Distribution{
		Count:  s.N(),
		Mean:   s.Mean(),
		Median: s.Median(),
		Max:    s.Max(),
		CDF:    s.CDF(),
		sample: s,
	}
}

// BandRow is one frequency band's statistics (Figures 5/6 for LTE, 8/9 for
// NR).
type BandRow struct {
	Band   spectrum.Band
	Count  int
	Mean   float64
	HBand  bool // LTE H-Band (≥20 MHz max channel)
	Biased bool // too few tests for a meaningful mean (§3.2's B28 caveat)
}

// HBandShare reports the fraction of 4G tests carried by H-Bands (§3.2:
// 85.6 %) and the share of the single busiest band (Band 3: 55 %).
func HBandShare(rows []BandRow) (hbandShare float64, topBandShare float64, topBand string) {
	var total, hband, top int
	for _, r := range rows {
		total += r.Count
		if r.HBand {
			hband += r.Count
		}
		if r.Count > top {
			top = r.Count
			topBand = r.Band.Name
		}
	}
	if total == 0 {
		return 0, 0, ""
	}
	return float64(hband) / float64(total), float64(top) / float64(total), topBand
}

// DiurnalRow is one hour's activity (Figure 10).
type DiurnalRow struct {
	Hour  int
	Tests int
	Mean  float64
}

// RSSRow is one RSS level's statistics (Figures 11 and 12).
type RSSRow struct {
	Level   int
	Count   int
	MeanSNR float64
	MeanBW  float64
}

// WiFiBreakdown holds per-standard distributions, optionally filtered by
// radio band (Figures 13, 14, 15).
type WiFiBreakdown struct {
	ByStandard map[int]Distribution // keyed by 4, 5, 6
}

// WiFiDistributions computes per-standard WiFi bandwidth distributions.
// radio filters to one radio band; pass nil for all (Figure 13).
func WiFiDistributions(records []dataset.Record, radio *dataset.RadioBand) WiFiBreakdown {
	a := NewWiFiAgg(radio)
	for _, r := range records {
		a.Observe(r)
	}
	return a.Snapshot()
}

// PDFResult is an estimated bandwidth probability density with a fitted
// multi-modal Gaussian model (Figures 16, 18, 19 and Equation 1).
type PDFResult struct {
	Points []stats.PDFPoint
	Model  *gmm.Model
	Modes  int
}

// Filter selects records for BandwidthPDF.
type Filter func(dataset.Record) bool

// TechFilter selects one technology.
func TechFilter(tech dataset.Tech) Filter {
	return func(r dataset.Record) bool { return r.Tech == tech }
}

// WiFiStandardFilter selects one WiFi standard.
func WiFiStandardFilter(std int) Filter {
	return func(r dataset.Record) bool {
		return r.Tech == dataset.TechWiFi && r.WiFiStandard == std
	}
}

// BandwidthPDF fits at most pdfMaxModes components on pdfFitSample records.
const pdfMaxModes, pdfFitSample = 5, 4000

// BandwidthPDF estimates the bandwidth density over [0, hi] and fits a
// multi-modal Gaussian mixture with up to pdfMaxModes components by BIC —
// the §5.1 model-refresh path — on a seeded subsample of pdfFitSample.
func BandwidthPDF(records []dataset.Record, filter Filter, hi float64, seed int64) (PDFResult, error) {
	var xs []float64
	for _, r := range records {
		if filter(r) {
			xs = append(xs, r.BandwidthMbps)
		}
	}
	if len(xs) < 100 {
		return PDFResult{}, fmt.Errorf("analysis: only %d matching records, need ≥100", len(xs))
	}
	s := stats.NewSample(xs)
	points := s.KDE(hi)

	fitXs := xs
	rng := rand.New(rand.NewSource(seed))
	if len(fitXs) > pdfFitSample {
		idx := rng.Perm(len(fitXs))[:pdfFitSample]
		sub := make([]float64, pdfFitSample)
		for i, j := range idx {
			sub[i] = fitXs[j]
		}
		fitXs = sub
	}
	model, k, err := gmm.FitBIC(fitXs, pdfMaxModes, rng)
	if err != nil {
		return PDFResult{}, fmt.Errorf("analysis: fitting mixture: %w", err)
	}
	return PDFResult{Points: points, Model: model, Modes: k}, nil
}
