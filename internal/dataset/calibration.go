package dataset

import (
	"math"

	"github.com/mobilebandwidth/swiftest/internal/gmm"
	"github.com/mobilebandwidth/swiftest/internal/spectrum"
	"github.com/mobilebandwidth/swiftest/internal/stats"
)

// This file is the single place where the paper's §3 findings are encoded as
// generator ground truth. Each table cites the figure it reproduces. Values
// are the paper's where stated, and chosen to be jointly consistent with the
// headline aggregates (e.g. per-band means × band shares ≈ the technology
// mean) where the paper gives only a chart.

// techSharesWithinCellular is the 4G/5G user split (§3.1: 5G share 17 % in
// 2020, 33 % in 2021; 3G is a trace population).
var techSharesWithinCellular = map[int]map[Tech]float64{
	2020: {Tech3G: 0.002, Tech4G: 0.828, Tech5G: 0.170},
	2021: {Tech3G: 0.001, Tech4G: 0.649, Tech5G: 0.350},
}

// cellularShareOfTests is the fraction of all tests that are cellular
// (§3.1: 2.56M cellular vs 21.1M WiFi tests in 2021).
const cellularShareOfTests = 0.108

// lteBandStats calibrates Figure 5 (per-band mean bandwidth, Mbps) and
// Figure 6 (per-band test share), per year. The 2021 values reflect the
// early-2021 refarming of B1/B28/B41 (§3.2); 2020 values predate it, giving
// the 68 Mbps average of Figure 1.
type bandStat struct {
	share float64 // fraction of the technology's tests on this band
	mean  float64 // average access bandwidth (Mbps)
}

var lteBands = map[int]map[string]bandStat{
	2021: {
		"B3":  {0.550, 56},
		"B41": {0.120, 58},
		"B1":  {0.090, 63},
		"B8":  {0.060, 35},
		"B40": {0.060, 61},
		"B39": {0.047, 48.2},
		"B5":  {0.045, 30},
		"B34": {0.028, 47.1},
		"B28": {2e-6, 45}, // two tests in the whole study (§3.2)
	},
	2020: {
		"B3":  {0.420, 64},
		"B41": {0.200, 90},
		"B1":  {0.160, 100},
		"B8":  {0.070, 36},
		"B40": {0.070, 62},
		"B39": {0.035, 49},
		"B5":  {0.045, 31},
		"B34": {0.030, 48},
		"B28": {2e-6, 45},
	},
}

// nrBands calibrates Figure 8 (per-band means: refarmed N1/N28 ≈ 103/113,
// N41 312, dedicated N78 332) and Figure 9 (test shares; N79 has 3 tests).
var nrBands = map[int]map[string]bandStat{
	2021: {
		"N78": {0.620, 332},
		"N41": {0.240, 312},
		"N1":  {0.080, 103},
		"N28": {0.060, 113},
		"N79": {3e-6, 250},
	},
	2020: {
		"N78": {0.800, 332},
		"N41": {0.180, 312},
		"N1":  {0.015, 103},
		"N28": {0.005, 113},
		"N79": {1e-6, 250},
	},
}

// nr2020Boost captures the lighter 5G load of 2020 (fewer users on fresh
// infrastructure), lifting the 2020 mean to Figure 1's 343 Mbps.
const nr2020Boost = 1.14

// lteShape is the technology-relative bandwidth distribution of 4G, scaled
// to mean 1 at init. Its heavy left mass produces Figure 4's skew (median
// 22 vs mean 53, 26.3 % of tests below 10 Mbps) and its small far mode is
// the LTE-Advanced tail (6.8 % of tests above 300 Mbps averaging 403,
// peaking around 813).
var lteShape = mustUnitShape(
	gmm.Component{Weight: 0.24, Mu: 6.0 / 53, Sigma: 3.0 / 53},
	gmm.Component{Weight: 0.37, Mu: 20.0 / 53, Sigma: 9.0 / 53},
	gmm.Component{Weight: 0.25, Mu: 55.0 / 53, Sigma: 22.0 / 53},
	gmm.Component{Weight: 0.07, Mu: 140.0 / 53, Sigma: 50.0 / 53},
	gmm.Component{Weight: 0.085, Mu: 345.0 / 53, Sigma: 85.0 / 53},
)

// nrShape is the technology-relative distribution of 5G (Figure 7: median
// 273, mean 303, max ≈1032), scaled to mean 1 at init; its modes are what
// Figure 19 plots.
var nrShape = mustUnitShape(
	gmm.Component{Weight: 0.15, Mu: 0.40, Sigma: 0.15},
	gmm.Component{Weight: 0.52, Mu: 0.92, Sigma: 0.24},
	gmm.Component{Weight: 0.28, Mu: 1.50, Sigma: 0.40},
	gmm.Component{Weight: 0.05, Mu: 2.60, Sigma: 0.60},
)

// rssLevels calibrates Figures 11 and 12: level shares, the RSS→SNR mapping
// (monotone), and the per-level 5G bandwidth factor, which rises through
// level 4 and then *drops* at excellent RSS — the §3.3 finding that
// excellent-RSS tests concentrate in crowded urban areas with cross-region
// coverage, multipath/co-channel interference, and load-balancing problems.
type rssLevel struct {
	share    float64
	snrMean  float64 // dB (Figure 11)
	snrSigma float64
	factor5G float64 // Figure 12: 204…314 then the level-5 drop
	factor4G float64 // §3.3: for 4G, RSS and bandwidth stay positively correlated
	rssDBm   float64 // representative raw RSS
}

var rssLevels = []rssLevel{
	{share: 0.07, snrMean: 8, snrSigma: 3.5, factor5G: 0.673, factor4G: 0.62, rssDBm: -110},
	{share: 0.15, snrMean: 15, snrSigma: 4.0, factor5G: 0.830, factor4G: 0.80, rssDBm: -102},
	{share: 0.25, snrMean: 22, snrSigma: 4.0, factor5G: 0.960, factor4G: 0.92, rssDBm: -94},
	{share: 0.33, snrMean: 28, snrSigma: 4.5, factor5G: 1.036, factor4G: 1.10, rssDBm: -86},
	{share: 0.20, snrMean: 35, snrSigma: 5.0, factor5G: 0.840, factor4G: 1.22, rssDBm: -78},
}

// hourlyLoad5G is Figure 10's test-arrival shape (tests per hour in a
// typical day: bottom ≈46 at 03–05 h, ≈362 at 21–23 h, evening peak ≈600).
var hourlyLoad5G = [24]float64{
	150, 100, 60, 46, 46, 60, 100, 180,
	260, 320, 380, 420, 430, 440, 450, 452,
	452, 480, 550, 600, 600, 362, 362, 250,
}

// hourFactor5G is Figure 10's average-bandwidth shape: bottom 276/303 ≈ 0.91
// during 21:00–23:00 (base-station sleeping outweighing the light load),
// peak 334/303 ≈ 1.10 at 03:00–05:00, and 308/303 ≈ 1.016 at 15:00–17:00
// despite 25 % more tests than 21–23 h.
var hourFactor5G = [24]float64{
	0.98, 1.02, 1.06, 1.10, 1.10, 1.05, 0.99, 0.95,
	0.93, 0.96, 0.98, 0.98, 0.99, 1.00, 1.01, 1.02,
	1.02, 1.00, 0.97, 0.94, 0.92, 0.91, 0.91, 0.94,
}

// hourFactor4G follows §3.3's contrast: LTE base stations do not sleep, so
// 4G bandwidth tracks the (daytime-heavy) load positively.
var hourFactor4G = [24]float64{
	0.97, 0.96, 0.95, 0.95, 0.95, 0.96, 0.97, 0.98,
	0.99, 1.00, 1.01, 1.02, 1.02, 1.02, 1.02, 1.03,
	1.03, 1.03, 1.04, 1.05, 1.05, 1.01, 1.01, 0.99,
}

// cellISPShares are per-technology ISP user shares. ISP-4 (the 5G-first
// newcomer on the 700 MHz band) has almost no LTE footprint (§3.2: Band 28
// saw two tests).
var cellISPShares = map[Tech]map[spectrum.ISP]float64{
	Tech4G: {spectrum.ISP1: 0.47, spectrum.ISP2: 0.25, spectrum.ISP3: 0.28, spectrum.ISP4: 2e-6},
	Tech5G: {spectrum.ISP1: 0.24, spectrum.ISP2: 0.25, spectrum.ISP3: 0.45, spectrum.ISP4: 0.06},
}

// ispLTEBands distributes each ISP's LTE tests over its bands, reproducing
// §3.2's per-ISP Band-3 shares (31 % / 63 % / 76 % for ISP-1/2/3).
var ispLTEBands = map[spectrum.ISP]map[string]float64{
	spectrum.ISP1: {"B3": 0.31, "B41": 0.26, "B40": 0.14, "B8": 0.09, "B39": 0.12, "B34": 0.08},
	spectrum.ISP2: {"B3": 0.63, "B1": 0.22, "B8": 0.15},
	spectrum.ISP3: {"B3": 0.76, "B1": 0.13, "B5": 0.11},
	spectrum.ISP4: {"B28": 1.0},
}

// ispNRBands distributes each ISP's 5G tests over its bands (Table 2).
var ispNRBands = map[spectrum.ISP]map[string]float64{
	spectrum.ISP1: {"N41": 0.99999, "N79": 0.00001},
	spectrum.ISP2: {"N78": 0.70, "N1": 0.30},
	spectrum.ISP3: {"N78": 0.85, "N1": 0.15},
	spectrum.ISP4: {"N28": 0.9999, "N79": 0.0001},
}

// isp3N78Bonus is footnote 2 of §3.3: ISP-3 deploys N78 on lower-frequency
// spectrum, gaining coverage/signal strength and hence bandwidth.
const isp3N78Bonus = 1.08

// WiFi calibration (§3.4, Figures 13–16).

// wifiStandardShares is the WiFi 4/5/6 test mix (57.2 / 31.3 / 11.5 % in
// 2021); the 2020 mix has roughly half the WiFi 6 share, yielding Figure 1's
// 132 vs 137 Mbps averages.
var wifiStandardShares = map[int]map[int]float64{
	2021: {4: 0.572, 5: 0.313, 6: 0.115},
	2020: {4: 0.560, 5: 0.365, 6: 0.075},
}

// wifi24Share is the fraction of each standard's tests on the 2.4 GHz radio.
// WiFi 5 is 5 GHz-only (§3.4 footnote); the WiFi 4 share is set so that the
// 2.4/5 GHz conditional means (Figures 14/15) blend to the overall WiFi 4
// mean of 59 Mbps (Figure 13).
var wifi24Share = map[int]float64{4: 0.872, 5: 0, 6: 0.03}

// wifiRadioCap is the air-interface capability distribution per
// (standard, radio): what the link could carry if the wired side were
// infinite. The wired broadband plan then caps it (the §3.4 finding that the
// tardy wired Internet offsets WiFi 5/6's advances).
var wifiRadioCap = map[int]map[RadioBand]*gmm.Model{
	4: {
		Band24GHz: gmm.MustNew(
			gmm.Component{Weight: 0.70, Mu: 30, Sigma: 9},
			gmm.Component{Weight: 0.25, Mu: 50, Sigma: 13},
			gmm.Component{Weight: 0.05, Mu: 130, Sigma: 50},
		),
		Band5GHz: gmm.MustNew(
			gmm.Component{Weight: 0.35, Mu: 190, Sigma: 55},
			gmm.Component{Weight: 0.40, Mu: 340, Sigma: 85},
			gmm.Component{Weight: 0.25, Mu: 470, Sigma: 70},
		),
	},
	5: {
		Band5GHz: gmm.MustNew(
			gmm.Component{Weight: 0.25, Mu: 230, Sigma: 60},
			gmm.Component{Weight: 0.40, Mu: 430, Sigma: 100},
			gmm.Component{Weight: 0.35, Mu: 700, Sigma: 170},
		),
	},
	6: {
		Band24GHz: gmm.MustNew(
			gmm.Component{Weight: 0.70, Mu: 70, Sigma: 20},
			gmm.Component{Weight: 0.30, Mu: 120, Sigma: 40},
		),
		Band5GHz: gmm.MustNew(
			gmm.Component{Weight: 0.25, Mu: 420, Sigma: 100},
			gmm.Component{Weight: 0.50, Mu: 740, Sigma: 180},
			gmm.Component{Weight: 0.25, Mu: 1150, Sigma: 240},
		),
	},
}

// broadbandPlans are the fixed-broadband tiers of Chinese ISPs (§3.4: the
// 100× Mbps clustering of Figure 16 mirrors the plan catalogue).
var broadbandPlans = []float64{50, 100, 200, 300, 500, 1000}

// wifiPlanShares give the plan mix per WiFi standard: ~72 % of WiFi 4/5
// users are on ≤200 Mbps plans (blending with WiFi 6's 41 % to the overall
// "~64 % of WiFi customers on ≤200 Mbps" of §3.4); WiFi 6 households skew
// to faster urban broadband.
var wifiPlanShares = map[int][]float64{
	4: {0.10, 0.26, 0.36, 0.15, 0.09, 0.04},
	5: {0.10, 0.26, 0.36, 0.15, 0.09, 0.04},
	6: {0.03, 0.13, 0.25, 0.22, 0.24, 0.13},
}

// wifiISPShares is the fixed-broadband market mix.
var wifiISPShares = map[spectrum.ISP]float64{
	spectrum.ISP1: 0.35, spectrum.ISP2: 0.25, spectrum.ISP3: 0.32, spectrum.ISP4: 0.08,
}

// isp3PlanUpgrade is §3.4's ISP-3 broadband investment: with this
// probability an ISP-3 household's plan is one tier higher, making ISP-3's
// WiFi the fastest of the four (Figure 3).
const isp3PlanUpgrade = 0.35

// planEfficiency is the delivered fraction of a plan's nominal rate.
const (
	planEffMean  = 0.94
	planEffSigma = 0.05
)

// Android-version calibration (Figure 2): bandwidth rises with the OS
// version managing the radio, and at a fixed version the device model adds
// only a small spread (§3.1: ≤23 Mbps s.d. for the same technology).
var androidShares = map[int]map[int]float64{
	2021: {5: 0.02, 6: 0.03, 7: 0.06, 8: 0.10, 9: 0.16, 10: 0.25, 11: 0.26, 12: 0.12},
	2020: {5: 0.04, 6: 0.06, 7: 0.10, 8: 0.15, 9: 0.22, 10: 0.28, 11: 0.13, 12: 0.02},
}

var androidFactor = map[int]float64{
	5: 0.55, 6: 0.62, 7: 0.70, 8: 0.80, 9: 0.90, 10: 0.99, 11: 1.07, 12: 1.14,
}

// deviceModelSigma is the relative spread contributed by the device model at
// a fixed Android version.
const deviceModelSigma = 0.05

// NumDeviceModels matches the study's 2,381 device models (§3.1).
const NumDeviceModels = 2381

// City calibration (§3.1 spatial disparity): 21 mega, 51 medium, 254 small
// cities with noticeable per-city dispersion, and urban areas of a city
// outperforming its rural areas by 24 % (4G) / 33 % (5G).
const (
	NumMegaCities   = 21
	NumMediumCities = 51
	NumSmallCities  = 254
	NumCities       = NumMegaCities + NumMediumCities + NumSmallCities

	citySigma  = 0.16 // relative s.d. of the per-city factor
	urbanShare = 0.65
)

var urbanFactor = map[Tech]struct{ urban, rural float64 }{
	Tech4G:   {1.085, 0.875}, // ratio 1.24 (§3.1)
	Tech5G:   {1.105, 0.830}, // ratio 1.33
	TechWiFi: {1.02, 0.963},  // wired access varies less
}

// --- normalisation helpers -------------------------------------------------

// mustUnitShape builds a mixture and rescales the component means so the
// mixture mean is exactly 1, letting band/tech means multiply in cleanly.
func mustUnitShape(comps ...gmm.Component) *gmm.Model {
	m := gmm.MustNew(comps...)
	mean := m.Mean()
	scaled := make([]gmm.Component, 0, m.K())
	for _, c := range m.Components() {
		scaled = append(scaled, gmm.Component{Weight: c.Weight, Mu: c.Mu / mean, Sigma: c.Sigma / mean})
	}
	return gmm.MustNew(scaled...)
}

// normalizedRSS returns the per-level bandwidth factors for tech, scaled so
// the share-weighted mean is 1 (keeping technology means calibrated).
func normalizedRSS(tech Tech) []float64 {
	out := make([]float64, len(rssLevels))
	var wsum float64
	for _, l := range rssLevels {
		f := l.factor5G
		if tech == Tech4G {
			f = l.factor4G
		}
		wsum += l.share * f
	}
	for i, l := range rssLevels {
		f := l.factor5G
		if tech == Tech4G {
			f = l.factor4G
		}
		out[i] = f / wsum
	}
	return out
}

// normalizedHourFactor returns hour factors scaled so the load-weighted mean
// is 1.
func normalizedHourFactor(factors, load [24]float64) [24]float64 {
	var fw, w float64
	for h := 0; h < 24; h++ {
		fw += factors[h] * load[h]
		w += load[h]
	}
	mean := fw / w
	var out [24]float64
	for h := 0; h < 24; h++ {
		out[h] = factors[h] / mean
	}
	return out
}

// normalizedAndroid returns version→factor scaled so the share-weighted mean
// for the year is 1.
func normalizedAndroid(year int) map[int]float64 {
	shares := androidShares[year]
	var fw float64
	for v := 5; v <= 12; v++ { // fixed order: float sums must be reproducible
		fw += shares[v] * androidFactor[v]
	}
	out := make(map[int]float64, len(androidFactor))
	for v, f := range androidFactor {
		out[v] = f / fw
	}
	return out
}

// normalizedUrban returns (urban, rural) factors for tech scaled so the
// share-weighted mean is 1.
func normalizedUrban(tech Tech) (float64, float64) {
	uf := urbanFactor[tech]
	mean := urbanShare*uf.urban + (1-urbanShare)*uf.rural
	return uf.urban / mean, uf.rural / mean
}

// unitNormalFromHash maps an id to a deterministic ≈N(0,1) value via an
// Irwin–Hall sum of hashed uniforms (stats.SplitMix64 is the avalanche, so
// per-entity factors are independent of draw order).
func unitNormalFromHash(id, salt uint64) float64 {
	var sum float64
	h := stats.SplitMix64(id ^ salt)
	for i := 0; i < 12; i++ {
		h = stats.SplitMix64(h)
		sum += stats.Uniform01(h)
	}
	return sum - 6
}

// cityFactor is the deterministic per-city bandwidth factor for a
// technology, clamped to a plausible range.
func cityFactor(cityID int, tech Tech) float64 {
	f := 1 + citySigma*unitNormalFromHash(uint64(cityID), uint64(tech)*0x9e37+1)
	return math.Min(1.6, math.Max(0.55, f))
}

// deviceBias is the deterministic per-model relative bandwidth bias.
func deviceBias(model int) float64 {
	return deviceModelSigma * unitNormalFromHash(uint64(model), 0xdeafbeef)
}
