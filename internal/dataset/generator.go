package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/mobilebandwidth/swiftest/internal/gmm"
	"github.com/mobilebandwidth/swiftest/internal/spectrum"
	"github.com/mobilebandwidth/swiftest/internal/stats"
)

// Config parameterises a Generator.
type Config struct {
	// Year selects the measurement year (2020 or 2021); the calibrations of
	// §3 differ across the two (refarming, standard mixes, OS mixes).
	Year int
	// Seed drives all randomness; equal seeds give equal streams.
	Seed int64
}

// Generator produces synthetic measurement records. It is a stream: each
// Next call draws one record. Not safe for concurrent use; create one
// Generator per goroutine (Shard and GenerateParallel do exactly that,
// sharing the read-only precomputed tables).
type Generator struct {
	cfg Config
	rng *rand.Rand

	// tab holds every sampling table, precomputed once in NewGenerator and
	// immutable afterwards, so Next does zero sorting, zero map iteration
	// and zero per-record summation. Shard clones share it.
	tab *genTables
}

// bandTable is a cumulative-share sampling table over one ISP's bands, with
// the per-band calibrated mean alongside so drawing a band costs one uniform
// draw and one linear scan over at most a handful of entries.
type bandTable struct {
	names []string  // sorted for reproducibility
	cum   []float64 // cumulative shares, accumulated in names order
	total float64   // cum[len-1], kept explicit for the u*total draw
	means []float64 // calibrated mean bandwidth per band (Mbps)
}

// cellTables bundles the per-technology cellular sampling state.
type cellTables struct {
	byISP [5]bandTable // indexed by spectrum.ISP (1–4)
	shape *gmm.Model
	rss   []float64
	hour  [24]float64
	urban [2]float64 // urban, rural
}

// genTables is the full precomputed sampling state of one (Year, Seed)
// calibration. Read-only after newGenTables; safe to share across the
// goroutines GenerateParallel spawns.
type genTables struct {
	// Technology split within cellular (cumulative).
	cum3G, cum4G float64

	// Diurnal arrival (cumulative over hourlyLoad5G).
	hourCum   [24]float64
	hourTotal float64

	// Android version draw (cumulative over sorted versions) and the
	// normalised per-version bandwidth factor, dense by version.
	androidOrder []int
	androidCum   []float64
	androidF     [16]float64

	// ISP draws (cumulative in ISP1..ISP4 order).
	isp4GCum   [4]float64
	isp5GCum   [4]float64
	ispWiFiCum [4]float64

	lte, nr cellTables

	// RSS level draw (cumulative over rssLevels shares).
	rssCum [5]float64

	// WiFi draws: standard split, 2.4 GHz share and plan mix by standard,
	// radio capability models by (standard, radio).
	wifiStdCum4  float64
	wifiStdCum45 float64
	wifi24       [7]float64
	planCum      [7][]float64
	radioCap     [7][2]*gmm.Model
	urbanWiFi    [2]float64

	// Deterministic per-entity factors, hoisted out of the record loop:
	// the Irwin–Hall hash walk behind deviceBias/cityFactor costs ~12
	// hashes per call, so it runs once per entity here instead of once per
	// record.
	deviceBiasTab []float64 // by device model
	cityF4        []float64 // by city, Tech4G
	cityF5        []float64 // by city, Tech5G
}

// NewGenerator returns a generator for cfg. Year must be 2020 or 2021.
func NewGenerator(cfg Config) (*Generator, error) {
	if cfg.Year != 2020 && cfg.Year != 2021 {
		return nil, fmt.Errorf("dataset: year %d not calibrated (2020 or 2021)", cfg.Year)
	}
	return &Generator{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
		tab: newGenTables(cfg.Year),
	}, nil
}

// MustNewGenerator is NewGenerator, panicking on error.
func MustNewGenerator(cfg Config) *Generator {
	g, err := NewGenerator(cfg)
	if err != nil {
		panic(err)
	}
	return g
}

// newGenTables precomputes every sampling table for a calibrated year. All
// cumulative sums accumulate in the same order the previous per-record code
// did, so the draw outcomes — and therefore the record streams — are
// bit-identical to the pre-table generator.
func newGenTables(year int) *genTables {
	t := &genTables{}

	shares := techSharesWithinCellular[year]
	t.cum3G = shares[Tech3G]
	t.cum4G = shares[Tech3G] + shares[Tech4G]

	var acc float64
	for h, w := range hourlyLoad5G {
		acc += w
		t.hourCum[h] = acc
	}
	t.hourTotal = acc

	android := normalizedAndroid(year)
	for v := range android {
		t.androidOrder = append(t.androidOrder, v)
	}
	sort.Ints(t.androidOrder)
	aShares := androidShares[year]
	acc = 0
	for _, v := range t.androidOrder {
		acc += aShares[v]
		t.androidCum = append(t.androidCum, acc)
		t.androidF[v] = android[v]
	}

	ispCum := func(shares map[spectrum.ISP]float64) (out [4]float64) {
		var acc float64
		for i, isp := range []spectrum.ISP{spectrum.ISP1, spectrum.ISP2, spectrum.ISP3, spectrum.ISP4} {
			acc += shares[isp]
			out[i] = acc
		}
		return out
	}
	t.isp4GCum = ispCum(cellISPShares[Tech4G])
	t.isp5GCum = ispCum(cellISPShares[Tech5G])
	t.ispWiFiCum = ispCum(wifiISPShares)

	t.lte = cellTables{
		shape: lteShape,
		rss:   normalizedRSS(Tech4G),
		hour:  normalizedHourFactor(hourFactor4G, hourlyLoad5G),
	}
	t.lte.urban[0], t.lte.urban[1] = normalizedUrban(Tech4G)
	t.nr = cellTables{
		shape: nrShape,
		rss:   normalizedRSS(Tech5G),
		hour:  normalizedHourFactor(hourFactor5G, hourlyLoad5G),
	}
	t.nr.urban[0], t.nr.urban[1] = normalizedUrban(Tech5G)
	for isp, shares := range ispLTEBands {
		t.lte.byISP[isp] = newBandTable(shares, lteBands[year])
	}
	for isp, shares := range ispNRBands {
		t.nr.byISP[isp] = newBandTable(shares, nrBands[year])
	}

	acc = 0
	for i, l := range rssLevels {
		acc += l.share
		t.rssCum[i] = acc
	}

	stdShares := wifiStandardShares[year]
	t.wifiStdCum4 = stdShares[4]
	t.wifiStdCum45 = stdShares[4] + stdShares[5]
	for std := 4; std <= 6; std++ {
		t.wifi24[std] = wifi24Share[std]
		var acc float64
		for _, s := range wifiPlanShares[std] {
			acc += s
			t.planCum[std] = append(t.planCum[std], acc)
		}
		for radio, m := range wifiRadioCap[std] {
			t.radioCap[std][radio] = m
		}
	}
	t.urbanWiFi[0], t.urbanWiFi[1] = normalizedUrban(TechWiFi)

	t.deviceBiasTab = make([]float64, NumDeviceModels)
	for m := range t.deviceBiasTab {
		t.deviceBiasTab[m] = deviceBias(m)
	}
	t.cityF4 = make([]float64, NumCities)
	t.cityF5 = make([]float64, NumCities)
	for c := range t.cityF4 {
		t.cityF4[c] = cityFactor(c, Tech4G)
		t.cityF5[c] = cityFactor(c, Tech5G)
	}
	return t
}

// newBandTable builds the cumulative band-draw table for one ISP,
// accumulating shares over the sorted band names exactly as the per-record
// sort used to.
func newBandTable(shares map[string]float64, stats map[string]bandStat) bandTable {
	names := make([]string, 0, len(shares))
	for n := range shares {
		names = append(names, n)
	}
	sort.Strings(names)
	t := bandTable{names: names}
	for _, n := range names {
		t.total += shares[n]
		t.cum = append(t.cum, t.total)
		stat, ok := stats[n]
		if !ok {
			stat = bandStat{mean: 50}
		}
		t.means = append(t.means, stat.mean)
	}
	return t
}

// Next draws one record.
//
// swiftvet:hotpath
func (g *Generator) Next() Record {
	r := Record{Year: g.cfg.Year}

	// Technology: cellular vs WiFi, then the within-cellular split.
	if g.rng.Float64() < cellularShareOfTests {
		u := g.rng.Float64()
		switch {
		case u < g.tab.cum3G:
			r.Tech = Tech3G
		case u < g.tab.cum4G:
			r.Tech = Tech4G
		default:
			r.Tech = Tech5G
		}
	} else {
		r.Tech = TechWiFi
	}

	// Common context.
	r.Hour = g.drawHour()
	r.CityID = g.rng.Intn(NumCities)
	switch {
	case r.CityID < NumMegaCities:
		r.CityTier = CityMega
	case r.CityID < NumMegaCities+NumMediumCities:
		r.CityTier = CityMedium
	default:
		r.CityTier = CitySmall
	}
	r.Urban = g.rng.Float64() < urbanShare
	r.AndroidVersion = g.drawAndroid()
	r.DeviceModel = g.rng.Intn(NumDeviceModels)

	switch r.Tech {
	case Tech3G:
		g.fill3G(&r)
	case Tech4G:
		g.fillCellular(&r, Tech4G)
	case Tech5G:
		g.fillCellular(&r, Tech5G)
	case TechWiFi:
		g.fillWiFi(&r)
	}
	r.StationID = g.drawStationID(&r)
	if r.BandwidthMbps < 0.1 {
		r.BandwidthMbps = 0.1
	}
	return r
}

func (g *Generator) drawHour() int {
	u := g.rng.Float64() * g.tab.hourTotal
	for h, c := range g.tab.hourCum {
		if u <= c {
			return h
		}
	}
	return 23
}

func (g *Generator) drawAndroid() int {
	u := g.rng.Float64()
	for i, c := range g.tab.androidCum {
		if u <= c {
			return g.tab.androidOrder[i]
		}
	}
	return g.tab.androidOrder[len(g.tab.androidOrder)-1]
}

func (g *Generator) fill3G(r *Record) {
	r.ISP = g.drawISP(&g.tab.isp4GCum)
	r.Band = "B34"
	g.fillSignal(r, Tech4G)
	r.BandwidthMbps = math.Max(0.1, g.rng.NormFloat64()*1.5+3)
}

func (g *Generator) fillCellular(r *Record, tech Tech) {
	ct := &g.tab.lte
	ispCum := &g.tab.isp4GCum
	cityF := g.tab.cityF4
	if tech == Tech5G {
		ct = &g.tab.nr
		ispCum = &g.tab.isp5GCum
		cityF = g.tab.cityF5
	}
	r.ISP = g.drawISP(ispCum)
	var mean float64
	r.Band, mean = g.drawBand(&ct.byISP[r.ISP])

	level := g.fillSignal(r, tech)

	bw := mean * ct.shape.Sample(g.rng)
	bw *= ct.rss[level-1]
	bw *= ct.hour[r.Hour]
	bw *= cityF[r.CityID]
	if r.Urban {
		bw *= ct.urban[0]
	} else {
		bw *= ct.urban[1]
	}
	bw *= g.tab.androidF[r.AndroidVersion]
	bw *= 1 + g.tab.deviceBiasTab[r.DeviceModel]
	if tech == Tech5G {
		if g.cfg.Year == 2020 {
			bw *= nr2020Boost
		}
		if r.Band == "N78" && r.ISP == spectrum.ISP3 {
			bw *= isp3N78Bonus
		}
	}
	r.BandwidthMbps = bw
}

// fillSignal draws the RSS level and derived signal fields; returns the
// level (1–5).
func (g *Generator) fillSignal(r *Record, tech Tech) int {
	u := g.rng.Float64()
	level := len(rssLevels)
	for i, c := range g.tab.rssCum {
		if u <= c {
			level = i + 1
			break
		}
	}
	l := rssLevels[level-1]
	r.RSSLevel = level
	r.RSSdBm = l.rssDBm + g.rng.NormFloat64()*2
	r.SNRdB = math.Max(0, l.snrMean+g.rng.NormFloat64()*l.snrSigma)
	// Excellent-RSS 5G tests concentrate in crowded urban areas (§3.3).
	if tech == Tech5G && level == 5 && g.rng.Float64() < 0.85 {
		r.Urban = true
	}
	return level
}

func (g *Generator) drawISP(cum *[4]float64) spectrum.ISP {
	u := g.rng.Float64()
	for i, c := range cum {
		if u <= c {
			return spectrum.ISP(i + 1)
		}
	}
	return spectrum.ISP1
}

// drawBand draws one band from the precomputed table, returning its name
// and calibrated mean bandwidth.
func (g *Generator) drawBand(t *bandTable) (string, float64) {
	u := g.rng.Float64() * t.total
	for i, c := range t.cum {
		if u <= c {
			return t.names[i], t.means[i]
		}
	}
	last := len(t.names) - 1
	return t.names[last], t.means[last]
}

func (g *Generator) fillWiFi(r *Record) {
	r.ISP = g.drawISP(&g.tab.ispWiFiCum)

	// Standard and radio band.
	u := g.rng.Float64()
	switch {
	case u < g.tab.wifiStdCum4:
		r.WiFiStandard = 4
	case u < g.tab.wifiStdCum45:
		r.WiFiStandard = 5
	default:
		r.WiFiStandard = 6
	}
	if g.rng.Float64() < g.tab.wifi24[r.WiFiStandard] {
		r.WiFiRadio = Band24GHz
	} else {
		r.WiFiRadio = Band5GHz
	}

	// Broadband plan (Figure 16's clustering), with ISP-3's upgrade bias.
	planIdx := g.drawPlanIndex(g.tab.planCum[r.WiFiStandard])
	if r.ISP == spectrum.ISP3 && planIdx < len(broadbandPlans)-1 && g.rng.Float64() < isp3PlanUpgrade {
		planIdx++
	}
	r.PlanMbps = broadbandPlans[planIdx]

	// Bandwidth: wired plan capped by the air interface.
	capModel := g.tab.radioCap[r.WiFiStandard][r.WiFiRadio]
	radio := capModel.Sample(g.rng)
	wired := r.PlanMbps * (planEffMean + g.rng.NormFloat64()*planEffSigma)
	bw := math.Min(wired, radio)
	if r.Urban {
		bw *= g.tab.urbanWiFi[0]
	} else {
		bw *= g.tab.urbanWiFi[1]
	}
	bw *= g.tab.androidF[r.AndroidVersion]
	bw *= 1 + g.tab.deviceBiasTab[r.DeviceModel]
	r.BandwidthMbps = bw
}

// drawStationID assigns the serving station. Cellular tests attach to one
// of a few hundred base stations per (city, band) — users cluster on nearby
// towers — while WiFi tests are drawn from a much larger AP space (home
// APs), matching §3.1's 2.04M BSes vs 4.47M APs asymmetry.
func (g *Generator) drawStationID(r *Record) uint32 {
	if r.Tech == TechWiFi {
		// Home APs: nearly one per user — a wide ID space.
		return uint32(g.rng.Intn(1 << 22))
	}
	// Base stations: a few hundred per city and band.
	base := stats.SplitMix64(uint64(r.CityID)<<16 ^ uint64(len(r.Band)) ^ uint64(r.Band[0]))
	return uint32(base%1_000_000)*512 + uint32(g.rng.Intn(400))
}

func (g *Generator) drawPlanIndex(cum []float64) int {
	u := g.rng.Float64()
	for i, c := range cum {
		if u <= c {
			return i
		}
	}
	return len(cum) - 1
}

// modelYear is the measurement year whose calibration TechModel fits.
const modelYear = 2021

// TechModel returns the calibrated bandwidth mixture for a technology in
// modelYear — the model Swiftest's data-driven probing consumes (Figures 16,
// 18, 19). The mixture is the technology shape scaled to the year's
// share-weighted technology mean.
func TechModel(tech Tech) (*gmm.Model, error) {
	var shape *gmm.Model
	var mean float64
	switch tech {
	case Tech4G:
		shape = lteShape
		mean = weightedBandMean(lteBands[modelYear])
	case Tech5G:
		shape = nrShape
		mean = weightedBandMean(nrBands[modelYear])
	case TechWiFi:
		// WiFi's mixture is plan-driven; approximate with plan clusters
		// weighted by the standard mix.
		return wifiModel()
	default:
		return nil, fmt.Errorf("dataset: no bandwidth model for %v", tech)
	}
	comps := make([]gmm.Component, 0, shape.K())
	for _, c := range shape.Components() {
		comps = append(comps, gmm.Component{Weight: c.Weight, Mu: c.Mu * mean, Sigma: c.Sigma * mean})
	}
	return gmm.New(comps...)
}

func weightedBandMean(bands map[string]bandStat) float64 {
	names := make([]string, 0, len(bands))
	for n := range bands {
		names = append(names, n)
	}
	sort.Strings(names) // fixed order: float sums must be reproducible
	var m, w float64
	for _, n := range names {
		m += bands[n].share * bands[n].mean
		w += bands[n].share
	}
	if w == 0 {
		return 0
	}
	return m / w
}

// wifiModel builds the WiFi mixture from the plan clusters (§3.4): one mode
// per broadband tier plus a low mode for radio-limited 2.4 GHz links.
func wifiModel() (*gmm.Model, error) {
	stdShares := wifiStandardShares[modelYear]
	weights := make([]float64, len(broadbandPlans))
	var low float64
	for std := 4; std <= 6; std++ { // fixed order: float sums must be reproducible
		share := stdShares[std]
		s24 := wifi24Share[std]
		low += share * s24
		for i, ps := range wifiPlanShares[std] {
			weights[i] += share * (1 - s24) * ps
		}
	}
	comps := []gmm.Component{{Weight: low, Mu: 40, Sigma: 18}}
	for i, p := range broadbandPlans {
		comps = append(comps, gmm.Component{
			Weight: weights[i],
			Mu:     p * planEffMean,
			Sigma:  math.Max(8, p*0.09),
		})
	}
	return gmm.New(comps...)
}
