// Single-pass mergeable aggregators. Every figure of this package is one of
// the Aggregator implementations below: dense-array accumulators indexed by
// small enums (technology, ISP, hour, RSS level, band slot, city) instead of
// per-record map operations.
// Aggregators merge, so Fanout can run one per shard of a record slice and
// combine the partials — the parallel path of the generate→aggregate
// engine.
//
// Accumulation order: a single-pass aggregator adds each key's values in
// record order, exactly like the map-based code it replaced, so per-key
// sums are bit-identical. Fanout's merged partials re-associate float
// additions (chunk by chunk instead of record by record), which can differ
// from one pass in the last ulp; its chunks are fixed, so its result is
// the same at every worker count, and counts are exact either way.
//
// Out-of-range field values (an hour ≥ 24, an unknown ISP, a city ID beyond
// the calibrated range) are skipped rather than extending the dense arrays:
// the generator never emits them, and hand-edited JSONL should not silently
// grow figures.
package analysis

import (
	"math"
	"sync"

	"github.com/mobilebandwidth/swiftest/internal/dataset"
	"github.com/mobilebandwidth/swiftest/internal/par"
	"github.com/mobilebandwidth/swiftest/internal/spectrum"
)

// numTech covers Tech3G..TechWiFi as dense indices.
const numTech = int(dataset.TechWiFi) + 1

// maxAndroid bounds the dense Android-version axis (calibrated versions are
// 5–12).
const maxAndroid = 16

// Aggregator is a streaming, mergeable accumulator over records. Observe
// folds one record in; Merge folds another aggregator of the same kind in,
// preserving "self first, other second" order so merged results equal a
// single pass over the concatenated inputs (modulo float re-association).
type Aggregator[A any] interface {
	Observe(dataset.Record)
	Merge(other A)
}

// Fanout runs an independent aggregator over each dataset.ShardSize-record
// chunk of records on the given number of workers (≤ 0 selects
// GOMAXPROCS) and merges the partials in chunk order. The chunks do not
// depend on workers, so neither do the result's bits.
func Fanout[A Aggregator[A]](records []dataset.Record, workers int, newAgg func() A) A {
	const chunk = dataset.ShardSize
	aggs := make([]A, (len(records)+chunk-1)/chunk)
	par.For(len(aggs), workers, func(c int) error {
		aggs[c] = newAgg()
		for _, r := range records[c*chunk : min((c+1)*chunk, len(records))] {
			aggs[c].Observe(r)
		}
		return nil
	})
	if len(aggs) == 0 {
		return newAgg()
	}
	for _, a := range aggs[1:] {
		aggs[0].Merge(a)
	}
	return aggs[0]
}

// TechAgg accumulates per-technology bandwidth sums (Figure 1).
type TechAgg struct {
	sum [numTech]float64
	n   [numTech]int
}

// NewTechAgg returns an empty TechAgg.
func NewTechAgg() *TechAgg { return &TechAgg{} }

// Observe implements Aggregator.
func (a *TechAgg) Observe(r dataset.Record) {
	t := int(r.Tech)
	if t < 0 || t >= numTech {
		return
	}
	a.sum[t] += r.BandwidthMbps
	a.n[t]++
}

// Merge implements Aggregator.
func (a *TechAgg) Merge(other *TechAgg) {
	for t := range a.sum {
		a.sum[t] += other.sum[t]
		a.n[t] += other.n[t]
	}
}

// Snapshot materialises the Figure 1 result.
func (a *TechAgg) Snapshot() TechAverages {
	out := TechAverages{Mean: map[dataset.Tech]float64{}, Count: map[dataset.Tech]int{}}
	for t := 0; t < numTech; t++ {
		if a.n[t] == 0 {
			continue
		}
		out.Count[dataset.Tech(t)] = a.n[t]
		out.Mean[dataset.Tech(t)] = a.sum[t] / float64(a.n[t])
	}
	return out
}

// CellularMean reports the blended non-WiFi average (§3.1).
func (a *TechAgg) CellularMean() float64 {
	var sum float64
	var n int
	for t := 0; t < numTech; t++ {
		if dataset.Tech(t) == dataset.TechWiFi {
			continue
		}
		sum += a.sum[t]
		n += a.n[t]
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// VersionAgg accumulates per-Android-version, per-technology sums
// (Figure 2).
type VersionAgg struct {
	sum [maxAndroid][numTech]float64
	n   [maxAndroid][numTech]int
}

// NewVersionAgg returns an empty VersionAgg.
func NewVersionAgg() *VersionAgg { return &VersionAgg{} }

// Observe implements Aggregator.
func (a *VersionAgg) Observe(r dataset.Record) {
	v, t := r.AndroidVersion, int(r.Tech)
	if v < 0 || v >= maxAndroid || t < 0 || t >= numTech {
		return
	}
	a.sum[v][t] += r.BandwidthMbps
	a.n[v][t]++
}

// Merge implements Aggregator.
func (a *VersionAgg) Merge(other *VersionAgg) {
	for v := range a.sum {
		for t := range a.sum[v] {
			a.sum[v][t] += other.sum[v][t]
			a.n[v][t] += other.n[v][t]
		}
	}
}

// Snapshot materialises the Figure 2 rows, versions ascending.
func (a *VersionAgg) Snapshot() []VersionRow {
	var out []VersionRow
	for v := 0; v < maxAndroid; v++ {
		row := VersionRow{Version: v, Mean: map[dataset.Tech]float64{}, Count: map[dataset.Tech]int{}}
		for t := 0; t < numTech; t++ {
			if a.n[v][t] == 0 {
				continue
			}
			row.Count[dataset.Tech(t)] = a.n[v][t]
			row.Mean[dataset.Tech(t)] = a.sum[v][t] / float64(a.n[v][t])
		}
		if len(row.Count) > 0 {
			out = append(out, row)
		}
	}
	return out
}

// ISPAgg accumulates per-ISP, per-technology sums (Figure 3). Slot 0 is
// unused: ISPs are 1-indexed.
type ISPAgg struct {
	sum [5][numTech]float64
	n   [5][numTech]int
}

// NewISPAgg returns an empty ISPAgg.
func NewISPAgg() *ISPAgg { return &ISPAgg{} }

// Observe implements Aggregator.
func (a *ISPAgg) Observe(r dataset.Record) {
	i, t := int(r.ISP), int(r.Tech)
	if i < 1 || i > 4 || t < 0 || t >= numTech {
		return
	}
	a.sum[i][t] += r.BandwidthMbps
	a.n[i][t]++
}

// Merge implements Aggregator.
func (a *ISPAgg) Merge(other *ISPAgg) {
	for i := range a.sum {
		for t := range a.sum[i] {
			a.sum[i][t] += other.sum[i][t]
			a.n[i][t] += other.n[i][t]
		}
	}
}

// Snapshot materialises the Figure 3 rows in ISP order.
func (a *ISPAgg) Snapshot() []ISPRow {
	var out []ISPRow
	for i := 1; i <= 4; i++ {
		row := ISPRow{ISP: spectrum.ISP(i), Mean: map[dataset.Tech]float64{}, Count: map[dataset.Tech]int{}}
		for t := 0; t < numTech; t++ {
			if a.n[i][t] == 0 {
				continue
			}
			row.Count[dataset.Tech(t)] = a.n[i][t]
			row.Mean[dataset.Tech(t)] = a.sum[i][t] / float64(a.n[i][t])
		}
		if len(row.Count) > 0 {
			out = append(out, row)
		}
	}
	return out
}

// bandSlots maps band names to dense slot indices, built once over the full
// spectrum catalogue (the per-record spectrum.ByName scan allocated two
// fresh band tables per call — the old ByBand hot spot).
var bandSlots struct {
	once  sync.Once
	index map[string]int
	bands []spectrum.Band
}

func bandSlot(name string) (int, bool) {
	bandSlots.once.Do(func() {
		bandSlots.bands = append(spectrum.LTEBands(), spectrum.NRBands()...)
		bandSlots.index = make(map[string]int, len(bandSlots.bands))
		for i, b := range bandSlots.bands {
			bandSlots.index[b.Name] = i
		}
	})
	i, ok := bandSlots.index[name]
	return i, ok
}

// BandAgg accumulates per-band sums for cellular tests (Figures 5/6/8/9).
type BandAgg struct {
	sum []float64
	n   []int
}

// NewBandAgg returns an empty BandAgg.
func NewBandAgg() *BandAgg {
	bandSlot("") // ensure the slot table exists
	return &BandAgg{
		sum: make([]float64, len(bandSlots.bands)),
		n:   make([]int, len(bandSlots.bands)),
	}
}

// Observe implements Aggregator.
func (a *BandAgg) Observe(r dataset.Record) {
	if r.Tech != dataset.Tech4G && r.Tech != dataset.Tech5G {
		return
	}
	if i, ok := bandSlot(r.Band); ok {
		a.sum[i] += r.BandwidthMbps
		a.n[i]++
	}
}

// Merge implements Aggregator.
func (a *BandAgg) Merge(other *BandAgg) {
	for i := range a.sum {
		a.sum[i] += other.sum[i]
		a.n[i] += other.n[i]
	}
}

// Snapshot materialises the per-band rows of one generation, in catalogue
// (downlink spectrum) order.
func (a *BandAgg) Snapshot(gen spectrum.Generation) []BandRow {
	var out []BandRow
	for i, b := range bandSlots.bands {
		if b.Gen != gen {
			continue
		}
		n := a.n[i]
		row := BandRow{Band: b, Count: n, HBand: b.IsHBand(), Biased: n > 0 && n < 30}
		if n > 0 {
			row.Mean = a.sum[i] / float64(n)
		}
		out = append(out, row)
	}
	return out
}

// DiurnalAgg accumulates per-hour sums for every technology (Figure 10).
type DiurnalAgg struct {
	sum [numTech][24]float64
	n   [numTech][24]int
}

// NewDiurnalAgg returns an empty DiurnalAgg.
func NewDiurnalAgg() *DiurnalAgg { return &DiurnalAgg{} }

// Observe implements Aggregator.
func (a *DiurnalAgg) Observe(r dataset.Record) {
	t := int(r.Tech)
	if t < 0 || t >= numTech || r.Hour < 0 || r.Hour > 23 {
		return
	}
	a.sum[t][r.Hour] += r.BandwidthMbps
	a.n[t][r.Hour]++
}

// Merge implements Aggregator.
func (a *DiurnalAgg) Merge(other *DiurnalAgg) {
	for t := range a.sum {
		for h := range a.sum[t] {
			a.sum[t][h] += other.sum[t][h]
			a.n[t][h] += other.n[t][h]
		}
	}
}

// Snapshot materialises one technology's 24 hourly rows.
func (a *DiurnalAgg) Snapshot(tech dataset.Tech) []DiurnalRow {
	t := int(tech)
	out := make([]DiurnalRow, 24)
	for h := 0; h < 24; h++ {
		out[h] = DiurnalRow{Hour: h, Tests: a.n[t][h]}
		if a.n[t][h] > 0 {
			out[h].Mean = a.sum[t][h] / float64(a.n[t][h])
		}
	}
	return out
}

// RSSAgg accumulates per-RSS-level SNR and bandwidth sums for every
// technology (Figures 11–12).
type RSSAgg struct {
	snr [numTech][6]float64
	bw  [numTech][6]float64
	n   [numTech][6]int
}

// NewRSSAgg returns an empty RSSAgg.
func NewRSSAgg() *RSSAgg { return &RSSAgg{} }

// Observe implements Aggregator.
func (a *RSSAgg) Observe(r dataset.Record) {
	t := int(r.Tech)
	if t < 0 || t >= numTech || r.RSSLevel < 1 || r.RSSLevel > 5 {
		return
	}
	a.snr[t][r.RSSLevel] += r.SNRdB
	a.bw[t][r.RSSLevel] += r.BandwidthMbps
	a.n[t][r.RSSLevel]++
}

// Merge implements Aggregator.
func (a *RSSAgg) Merge(other *RSSAgg) {
	for t := range a.snr {
		for l := range a.snr[t] {
			a.snr[t][l] += other.snr[t][l]
			a.bw[t][l] += other.bw[t][l]
			a.n[t][l] += other.n[t][l]
		}
	}
}

// Snapshot materialises one technology's five RSS-level rows.
func (a *RSSAgg) Snapshot(tech dataset.Tech) []RSSRow {
	t := int(tech)
	out := make([]RSSRow, 0, 5)
	for lvl := 1; lvl <= 5; lvl++ {
		row := RSSRow{Level: lvl, Count: a.n[t][lvl]}
		if a.n[t][lvl] > 0 {
			row.MeanSNR = a.snr[t][lvl] / float64(a.n[t][lvl])
			row.MeanBW = a.bw[t][lvl] / float64(a.n[t][lvl])
		}
		out = append(out, row)
	}
	return out
}

// DistAgg collects per-technology bandwidth values in observation order, so
// a merged DistAgg yields bit-identical distributions to a single pass
// (concatenating chunk slices in chunk order reproduces record order).
type DistAgg struct {
	vals [numTech][]float64
}

// NewDistAgg returns an empty DistAgg.
func NewDistAgg() *DistAgg { return &DistAgg{} }

// Observe implements Aggregator.
func (a *DistAgg) Observe(r dataset.Record) {
	t := int(r.Tech)
	if t < 0 || t >= numTech {
		return
	}
	a.vals[t] = append(a.vals[t], r.BandwidthMbps)
}

// Merge implements Aggregator.
func (a *DistAgg) Merge(other *DistAgg) {
	for t := range a.vals {
		a.vals[t] = append(a.vals[t], other.vals[t]...)
	}
}

// Snapshot materialises one technology's bandwidth distribution.
func (a *DistAgg) Snapshot(tech dataset.Tech) Distribution {
	return distribute(a.vals[int(tech)])
}

// WiFiAgg collects per-WiFi-standard bandwidth values, optionally filtered
// to one radio band, plus broadband-plan counts (Figures 13–16). Standards
// are keyed densely 4..6; others are skipped.
type WiFiAgg struct {
	radio *dataset.RadioBand
	vals  [7][]float64
	plans [7]map[float64]int // per-standard plan→count
	nStd  [7]int             // all WiFi records per standard (unfiltered)
	nAll  int                // all WiFi records
}

// NewWiFiAgg returns an empty WiFiAgg; radio filters the collected
// distributions to one radio band (nil = all, as in Figure 13).
func NewWiFiAgg(radio *dataset.RadioBand) *WiFiAgg {
	return &WiFiAgg{radio: radio}
}

// Observe implements Aggregator.
func (a *WiFiAgg) Observe(r dataset.Record) {
	if r.Tech != dataset.TechWiFi {
		return
	}
	a.nAll++
	std := r.WiFiStandard
	if std < 0 || std >= len(a.vals) {
		return
	}
	a.nStd[std]++
	if a.plans[std] == nil {
		a.plans[std] = map[float64]int{}
	}
	a.plans[std][r.PlanMbps]++
	if a.radio == nil || r.WiFiRadio == *a.radio {
		a.vals[std] = append(a.vals[std], r.BandwidthMbps)
	}
}

// Merge implements Aggregator. Both aggregators must share the same radio
// filter.
func (a *WiFiAgg) Merge(other *WiFiAgg) {
	a.nAll += other.nAll
	for std := range a.vals {
		a.vals[std] = append(a.vals[std], other.vals[std]...)
		a.nStd[std] += other.nStd[std]
		for plan, n := range other.plans[std] {
			if a.plans[std] == nil {
				a.plans[std] = map[float64]int{}
			}
			a.plans[std][plan] += n
		}
	}
}

// Snapshot materialises the per-standard distributions.
func (a *WiFiAgg) Snapshot() WiFiBreakdown {
	out := WiFiBreakdown{ByStandard: map[int]Distribution{}}
	for std, xs := range a.vals {
		if len(xs) > 0 {
			out.ByStandard[std] = distribute(xs)
		}
	}
	return out
}

// planCapMbps is the broadband plan PlanShareAtOrBelow counts up to (§3.4).
const planCapMbps = 200

// PlanShareAtOrBelow reports the fraction of WiFi tests on plans ≤
// planCapMbps; standard restricts to one WiFi standard (0 = all).
func (a *WiFiAgg) PlanShareAtOrBelow(standard int) float64 {
	var n, below int
	if standard == 0 {
		n = a.nAll
	} else if standard > 0 && standard < len(a.nStd) {
		n = a.nStd[standard]
	}
	for std := range a.plans {
		if standard != 0 && std != standard {
			continue
		}
		for plan, c := range a.plans[std] {
			if plan <= planCapMbps {
				below += c
			}
		}
	}
	if n == 0 {
		return 0
	}
	return float64(below) / float64(n)
}

// SpatialAgg accumulates the §3.1 spatial-disparity state: per-city and
// urban/rural sums, densely indexed (city IDs beyond the calibrated
// NumCities are skipped).
type SpatialAgg struct {
	urbanSum [numTech][2]float64 // 0 urban, 1 rural
	urbanN   [numTech][2]int
	citySum  [numTech][]float64
	cityN    [numTech][]int
}

// NewSpatialAgg returns an empty SpatialAgg.
func NewSpatialAgg() *SpatialAgg {
	a := &SpatialAgg{}
	for t := range a.citySum {
		a.citySum[t] = make([]float64, dataset.NumCities)
		a.cityN[t] = make([]int, dataset.NumCities)
	}
	return a
}

// Observe implements Aggregator.
func (a *SpatialAgg) Observe(r dataset.Record) {
	t := int(r.Tech)
	if t < 0 || t >= numTech {
		return
	}
	side := 1
	if r.Urban {
		side = 0
	}
	a.urbanSum[t][side] += r.BandwidthMbps
	a.urbanN[t][side]++
	if r.CityID >= 0 && r.CityID < dataset.NumCities {
		a.citySum[t][r.CityID] += r.BandwidthMbps
		a.cityN[t][r.CityID]++
	}
}

// Merge implements Aggregator.
func (a *SpatialAgg) Merge(other *SpatialAgg) {
	for t := 0; t < numTech; t++ {
		for s := 0; s < 2; s++ {
			a.urbanSum[t][s] += other.urbanSum[t][s]
			a.urbanN[t][s] += other.urbanN[t][s]
		}
		for c := range a.citySum[t] {
			a.citySum[t][c] += other.citySum[t][c]
			a.cityN[t][c] += other.cityN[t][c]
		}
	}
}

// UrbanRuralRatio reports one technology's urban/rural mean ratio.
func (a *SpatialAgg) UrbanRuralRatio(tech dataset.Tech) float64 {
	t := int(tech)
	uN, rN := a.urbanN[t][0], a.urbanN[t][1]
	if uN == 0 || rN == 0 || a.urbanSum[t][1] == 0 {
		return 0
	}
	return (a.urbanSum[t][0] / float64(uN)) / (a.urbanSum[t][1] / float64(rN))
}

// CityRange reports the lowest and highest per-city mean for a technology
// among cities with at least minTests tests.
func (a *SpatialAgg) CityRange(tech dataset.Tech, minTests int) (lo, hi float64, cities int) {
	t := int(tech)
	lo, hi = math.Inf(1), math.Inf(-1)
	for c, n := range a.cityN[t] {
		if n == 0 || n < minTests {
			continue
		}
		mean := a.citySum[t][c] / float64(n)
		lo = math.Min(lo, mean)
		hi = math.Max(hi, mean)
		cities++
	}
	if cities == 0 {
		return 0, 0, 0
	}
	return lo, hi, cities
}

// UnbalancedCityShare reports the fraction of cities above the national
// mean in exactly one of 4G and 5G, among cities with at least minTests
// tests in both.
func (a *SpatialAgg) UnbalancedCityShare(minTests int) float64 {
	t4, t5 := int(dataset.Tech4G), int(dataset.Tech5G)
	var nat4Sum, nat5Sum float64
	var nat4N, nat5N int
	for c := range a.cityN[t4] {
		nat4Sum += a.citySum[t4][c]
		nat4N += a.cityN[t4][c]
		nat5Sum += a.citySum[t5][c]
		nat5N += a.cityN[t5][c]
	}
	if nat4N == 0 || nat5N == 0 {
		return 0
	}
	nat4 := nat4Sum / float64(nat4N)
	nat5 := nat5Sum / float64(nat5N)
	var eligible, unbalanced int
	for c := range a.cityN[t4] {
		if a.cityN[t4][c] < minTests || a.cityN[t5][c] < minTests {
			continue
		}
		eligible++
		above4 := a.citySum[t4][c]/float64(a.cityN[t4][c]) >= nat4
		above5 := a.citySum[t5][c]/float64(a.cityN[t5][c]) >= nat5
		if above4 != above5 {
			unbalanced++
		}
	}
	if eligible == 0 {
		return 0
	}
	return float64(unbalanced) / float64(eligible)
}

// Study aggregates every figure's state in one pass: run it over the full
// record stream (optionally via Fanout) and snapshot each figure from the
// result — one traversal instead of one per figure.
type Study struct {
	Tech    *TechAgg
	Version *VersionAgg
	ISP     *ISPAgg
	Band    *BandAgg
	Diurnal *DiurnalAgg
	RSS     *RSSAgg
	Dist    *DistAgg
	WiFi    *WiFiAgg
	Spatial *SpatialAgg
}

// NewStudy returns an empty Study.
func NewStudy() *Study {
	return &Study{
		Tech:    NewTechAgg(),
		Version: NewVersionAgg(),
		ISP:     NewISPAgg(),
		Band:    NewBandAgg(),
		Diurnal: NewDiurnalAgg(),
		RSS:     NewRSSAgg(),
		Dist:    NewDistAgg(),
		WiFi:    NewWiFiAgg(nil),
		Spatial: NewSpatialAgg(),
	}
}

// Observe implements Aggregator.
func (s *Study) Observe(r dataset.Record) {
	s.Tech.Observe(r)
	s.Version.Observe(r)
	s.ISP.Observe(r)
	s.Band.Observe(r)
	s.Diurnal.Observe(r)
	s.RSS.Observe(r)
	s.Dist.Observe(r)
	s.WiFi.Observe(r)
	s.Spatial.Observe(r)
}

// Merge implements Aggregator.
func (s *Study) Merge(other *Study) {
	s.Tech.Merge(other.Tech)
	s.Version.Merge(other.Version)
	s.ISP.Merge(other.ISP)
	s.Band.Merge(other.Band)
	s.Diurnal.Merge(other.Diurnal)
	s.RSS.Merge(other.RSS)
	s.Dist.Merge(other.Dist)
	s.WiFi.Merge(other.WiFi)
	s.Spatial.Merge(other.Spatial)
}
