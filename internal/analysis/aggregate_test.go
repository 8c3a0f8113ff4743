package analysis

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"github.com/mobilebandwidth/swiftest/internal/dataset"
	"github.com/mobilebandwidth/swiftest/internal/spectrum"
)

// ---------------------------------------------------------------------------
// Legacy reference implementations: the map-based single-pass code the
// aggregators replaced, kept verbatim as the equivalence oracle.
// ---------------------------------------------------------------------------

func legacyAverageByTech(records []dataset.Record) TechAverages {
	sums := map[dataset.Tech]float64{}
	counts := map[dataset.Tech]int{}
	for _, r := range records {
		sums[r.Tech] += r.BandwidthMbps
		counts[r.Tech]++
	}
	out := TechAverages{Mean: map[dataset.Tech]float64{}, Count: counts}
	for tech, s := range sums {
		out.Mean[tech] = s / float64(counts[tech])
	}
	return out
}

func legacyCellularAverage(records []dataset.Record) float64 {
	var sum float64
	var n int
	for _, r := range records {
		if r.Tech != dataset.TechWiFi {
			sum += r.BandwidthMbps
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func legacyByAndroidVersion(records []dataset.Record) []VersionRow {
	type acc struct {
		sum map[dataset.Tech]float64
		n   map[dataset.Tech]int
	}
	byVer := map[int]*acc{}
	for _, r := range records {
		a := byVer[r.AndroidVersion]
		if a == nil {
			a = &acc{sum: map[dataset.Tech]float64{}, n: map[dataset.Tech]int{}}
			byVer[r.AndroidVersion] = a
		}
		a.sum[r.Tech] += r.BandwidthMbps
		a.n[r.Tech]++
	}
	versions := make([]int, 0, len(byVer))
	for v := range byVer {
		versions = append(versions, v)
	}
	sort.Ints(versions)
	out := make([]VersionRow, 0, len(versions))
	for _, v := range versions {
		a := byVer[v]
		row := VersionRow{Version: v, Mean: map[dataset.Tech]float64{}, Count: a.n}
		for tech, s := range a.sum {
			row.Mean[tech] = s / float64(a.n[tech])
		}
		out = append(out, row)
	}
	return out
}

func legacyByISP(records []dataset.Record) []ISPRow {
	type acc struct {
		sum map[dataset.Tech]float64
		n   map[dataset.Tech]int
	}
	byISP := map[spectrum.ISP]*acc{}
	for _, r := range records {
		a := byISP[r.ISP]
		if a == nil {
			a = &acc{sum: map[dataset.Tech]float64{}, n: map[dataset.Tech]int{}}
			byISP[r.ISP] = a
		}
		a.sum[r.Tech] += r.BandwidthMbps
		a.n[r.Tech]++
	}
	out := make([]ISPRow, 0, 4)
	for _, isp := range []spectrum.ISP{spectrum.ISP1, spectrum.ISP2, spectrum.ISP3, spectrum.ISP4} {
		a := byISP[isp]
		if a == nil {
			continue
		}
		row := ISPRow{ISP: isp, Mean: map[dataset.Tech]float64{}, Count: a.n}
		for tech, s := range a.sum {
			row.Mean[tech] = s / float64(a.n[tech])
		}
		out = append(out, row)
	}
	return out
}

func legacyByBand(records []dataset.Record, gen spectrum.Generation) []BandRow {
	sums := map[string]float64{}
	counts := map[string]int{}
	for _, r := range records {
		if r.Tech != dataset.Tech4G && r.Tech != dataset.Tech5G {
			continue
		}
		b, ok := spectrum.ByName(r.Band)
		if !ok || b.Gen != gen {
			continue
		}
		sums[r.Band] += r.BandwidthMbps
		counts[r.Band]++
	}
	table := spectrum.LTEBands()
	if gen == spectrum.NR {
		table = spectrum.NRBands()
	}
	var out []BandRow
	for _, b := range table {
		n := counts[b.Name]
		row := BandRow{Band: b, Count: n, HBand: b.IsHBand(), Biased: n > 0 && n < 30}
		if n > 0 {
			row.Mean = sums[b.Name] / float64(n)
		}
		out = append(out, row)
	}
	return out
}

func legacyDiurnal(records []dataset.Record, tech dataset.Tech) []DiurnalRow {
	sums := make([]float64, 24)
	counts := make([]int, 24)
	for _, r := range records {
		if r.Tech == tech {
			sums[r.Hour] += r.BandwidthMbps
			counts[r.Hour]++
		}
	}
	out := make([]DiurnalRow, 24)
	for h := 0; h < 24; h++ {
		out[h] = DiurnalRow{Hour: h, Tests: counts[h]}
		if counts[h] > 0 {
			out[h].Mean = sums[h] / float64(counts[h])
		}
	}
	return out
}

func legacyByRSSLevel(records []dataset.Record, tech dataset.Tech) []RSSRow {
	snr := make([]float64, 6)
	bw := make([]float64, 6)
	n := make([]int, 6)
	for _, r := range records {
		if r.Tech != tech || r.RSSLevel < 1 || r.RSSLevel > 5 {
			continue
		}
		snr[r.RSSLevel] += r.SNRdB
		bw[r.RSSLevel] += r.BandwidthMbps
		n[r.RSSLevel]++
	}
	out := make([]RSSRow, 0, 5)
	for lvl := 1; lvl <= 5; lvl++ {
		row := RSSRow{Level: lvl, Count: n[lvl]}
		if n[lvl] > 0 {
			row.MeanSNR = snr[lvl] / float64(n[lvl])
			row.MeanBW = bw[lvl] / float64(n[lvl])
		}
		out = append(out, row)
	}
	return out
}

func legacyPlanShareAtOrBelow(records []dataset.Record, mbps float64, standard int) float64 {
	var n, below int
	for _, r := range records {
		if r.Tech != dataset.TechWiFi {
			continue
		}
		if standard != 0 && r.WiFiStandard != standard {
			continue
		}
		n++
		if r.PlanMbps <= mbps {
			below++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(below) / float64(n)
}

// ---------------------------------------------------------------------------
// Equivalence: the aggregator-backed public functions must reproduce the
// legacy outputs. Counts must match exactly; means within relTol (merged or
// re-associated float sums may differ in the last ulp).
// ---------------------------------------------------------------------------

const relTol = 1e-9

func closeEnough(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= relTol*math.Max(math.Abs(a), math.Abs(b))
}

func aggRecords(t testing.TB, n int) []dataset.Record {
	t.Helper()
	g, err := dataset.NewGenerator(dataset.Config{Year: 2021, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return generate(g, n)
}

func TestAggMatchesLegacy(t *testing.T) {
	recs := aggRecords(t, 200_000)

	t.Run("AverageByTech", func(t *testing.T) {
		got, want := single(recs, NewTechAgg()).Snapshot(), legacyAverageByTech(recs)
		if len(got.Mean) != len(want.Mean) || len(got.Count) != len(want.Count) {
			t.Fatalf("shape mismatch: got %v, want %v", got, want)
		}
		for tech, w := range want.Mean {
			if got.Count[tech] != want.Count[tech] {
				t.Errorf("%v count = %d, want %d", tech, got.Count[tech], want.Count[tech])
			}
			if got.Mean[tech] != w {
				t.Errorf("%v mean = %v, want %v (must be bit-identical: same accumulation order)", tech, got.Mean[tech], w)
			}
		}
	})

	t.Run("CellularAverage", func(t *testing.T) {
		if got, want := single(recs, NewTechAgg()).CellularMean(), legacyCellularAverage(recs); !closeEnough(got, want) {
			t.Errorf("got %v, want %v", got, want)
		}
	})

	t.Run("ByAndroidVersion", func(t *testing.T) {
		got, want := single(recs, NewVersionAgg()).Snapshot(), legacyByAndroidVersion(recs)
		if len(got) != len(want) {
			t.Fatalf("got %d rows, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i].Version != want[i].Version {
				t.Fatalf("row %d version = %d, want %d", i, got[i].Version, want[i].Version)
			}
			for tech := range want[i].Mean {
				if got[i].Count[tech] != want[i].Count[tech] || got[i].Mean[tech] != want[i].Mean[tech] {
					t.Errorf("v%d %v: got (%v,%d), want (%v,%d)", want[i].Version, tech,
						got[i].Mean[tech], got[i].Count[tech], want[i].Mean[tech], want[i].Count[tech])
				}
			}
		}
	})

	t.Run("ByISP", func(t *testing.T) {
		got, want := single(recs, NewISPAgg()).Snapshot(), legacyByISP(recs)
		if len(got) != len(want) {
			t.Fatalf("got %d rows, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i].ISP != want[i].ISP {
				t.Fatalf("row %d ISP = %v, want %v", i, got[i].ISP, want[i].ISP)
			}
			for tech := range want[i].Mean {
				if got[i].Count[tech] != want[i].Count[tech] || got[i].Mean[tech] != want[i].Mean[tech] {
					t.Errorf("%v %v: got (%v,%d), want (%v,%d)", want[i].ISP, tech,
						got[i].Mean[tech], got[i].Count[tech], want[i].Mean[tech], want[i].Count[tech])
				}
			}
		}
	})

	t.Run("ByBand", func(t *testing.T) {
		for _, gen := range []spectrum.Generation{spectrum.LTE, spectrum.NR} {
			got, want := single(recs, NewBandAgg()).Snapshot(gen), legacyByBand(recs, gen)
			if len(got) != len(want) {
				t.Fatalf("%v: got %d rows, want %d", gen, len(got), len(want))
			}
			for i := range want {
				if got[i].Band.Name != want[i].Band.Name || got[i].Count != want[i].Count ||
					got[i].Mean != want[i].Mean || got[i].HBand != want[i].HBand || got[i].Biased != want[i].Biased {
					t.Errorf("%v row %d: got %+v, want %+v", gen, i, got[i], want[i])
				}
			}
		}
	})

	t.Run("Diurnal", func(t *testing.T) {
		for _, tech := range []dataset.Tech{dataset.Tech4G, dataset.Tech5G, dataset.TechWiFi} {
			got, want := single(recs, NewDiurnalAgg()).Snapshot(tech), legacyDiurnal(recs, tech)
			for h := range want {
				if got[h] != want[h] {
					t.Errorf("%v hour %d: got %+v, want %+v", tech, h, got[h], want[h])
				}
			}
		}
	})

	t.Run("ByRSSLevel", func(t *testing.T) {
		for _, tech := range []dataset.Tech{dataset.Tech4G, dataset.Tech5G} {
			got, want := single(recs, NewRSSAgg()).Snapshot(tech), legacyByRSSLevel(recs, tech)
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%v level %d: got %+v, want %+v", tech, want[i].Level, got[i], want[i])
				}
			}
		}
	})

	t.Run("TechDistribution", func(t *testing.T) {
		for _, tech := range []dataset.Tech{dataset.Tech4G, dataset.Tech5G} {
			got := single(recs, NewDistAgg()).Snapshot(tech)
			var xs []float64
			for _, r := range recs {
				if r.Tech == tech {
					xs = append(xs, r.BandwidthMbps)
				}
			}
			want := distribute(xs)
			if got.Count != want.Count || got.Mean != want.Mean || got.Median != want.Median || got.Max != want.Max {
				t.Errorf("%v: got (%d,%v,%v,%v), want (%d,%v,%v,%v)", tech,
					got.Count, got.Mean, got.Median, got.Max, want.Count, want.Mean, want.Median, want.Max)
			}
		}
	})

	t.Run("PlanShareAtOrBelow", func(t *testing.T) {
		for _, std := range []int{0, 4, 5, 6} {
			if got, want := single(recs, NewWiFiAgg(nil)).PlanShareAtOrBelow(std), legacyPlanShareAtOrBelow(recs, 200, std); got != want {
				t.Errorf("std=%d: got %v, want %v", std, got, want)
			}
		}
	})

	t.Run("WiFiDistributions", func(t *testing.T) {
		radio := dataset.Band5GHz
		for _, filter := range []*dataset.RadioBand{nil, &radio} {
			got := WiFiDistributions(recs, filter)
			values := map[int][]float64{}
			for _, r := range recs {
				if r.Tech != dataset.TechWiFi {
					continue
				}
				if filter != nil && r.WiFiRadio != *filter {
					continue
				}
				values[r.WiFiStandard] = append(values[r.WiFiStandard], r.BandwidthMbps)
			}
			if len(got.ByStandard) != len(values) {
				t.Fatalf("got %d standards, want %d", len(got.ByStandard), len(values))
			}
			for std, xs := range values {
				want := distribute(xs)
				g := got.ByStandard[std]
				if g.Count != want.Count || g.Mean != want.Mean || g.Median != want.Median {
					t.Errorf("std %d: got (%d,%v,%v), want (%d,%v,%v)", std,
						g.Count, g.Mean, g.Median, want.Count, want.Mean, want.Median)
				}
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Merge property: aggregating any partition of the records and merging the
// partials must equal the single-pass result — counts exactly, sums within
// relTol.
// ---------------------------------------------------------------------------

// partition splits records at sorted random cut points.
func partition(rng *rand.Rand, records []dataset.Record, parts int) [][]dataset.Record {
	cuts := make([]int, 0, parts+1)
	cuts = append(cuts, 0, len(records))
	for i := 0; i < parts-1; i++ {
		cuts = append(cuts, rng.Intn(len(records)+1))
	}
	sort.Ints(cuts)
	var out [][]dataset.Record
	for i := 1; i < len(cuts); i++ {
		out = append(out, records[cuts[i-1]:cuts[i]])
	}
	return out
}

// mergeOver runs one aggregator per part and merges left to right.
func mergeOver[A Aggregator[A]](parts [][]dataset.Record, newAgg func() A) A {
	agg := newAgg()
	for _, part := range parts {
		sub := newAgg()
		for _, r := range part {
			sub.Observe(r)
		}
		agg.Merge(sub)
	}
	return agg
}

func TestMergeEqualsSinglePass(t *testing.T) {
	recs := aggRecords(t, 120_000)
	rng := rand.New(rand.NewSource(1))

	single := NewStudy()
	for _, r := range recs {
		single.Observe(r)
	}
	want := single.Tech.Snapshot()
	wantBand := single.Band.Snapshot(spectrum.LTE)
	wantDist := single.Dist.Snapshot(dataset.Tech5G)
	wantPlan := single.WiFi.PlanShareAtOrBelow(0)

	for trial := 0; trial < 5; trial++ {
		parts := partition(rng, recs, 1+rng.Intn(12))
		merged := mergeOver(parts, NewStudy)

		got := merged.Tech.Snapshot()
		for tech, w := range want.Mean {
			if got.Count[tech] != want.Count[tech] {
				t.Fatalf("trial %d: %v count = %d, want %d", trial, tech, got.Count[tech], want.Count[tech])
			}
			if !closeEnough(got.Mean[tech], w) {
				t.Fatalf("trial %d: %v mean = %v, want %v", trial, tech, got.Mean[tech], w)
			}
		}

		gotBand := merged.Band.Snapshot(spectrum.LTE)
		for i := range wantBand {
			if gotBand[i].Count != wantBand[i].Count || !closeEnough(gotBand[i].Mean, wantBand[i].Mean) {
				t.Fatalf("trial %d: band %s: got (%d,%v), want (%d,%v)", trial, wantBand[i].Band.Name,
					gotBand[i].Count, gotBand[i].Mean, wantBand[i].Count, wantBand[i].Mean)
			}
		}

		// Value-collecting aggregators preserve record order under ordered
		// merge, so distributions are bit-identical, not just close.
		gotDist := merged.Dist.Snapshot(dataset.Tech5G)
		if gotDist.Count != wantDist.Count || gotDist.Mean != wantDist.Mean || gotDist.Median != wantDist.Median {
			t.Fatalf("trial %d: 5G distribution diverged: got (%d,%v,%v), want (%d,%v,%v)", trial,
				gotDist.Count, gotDist.Mean, gotDist.Median, wantDist.Count, wantDist.Mean, wantDist.Median)
		}

		if gotPlan := merged.WiFi.PlanShareAtOrBelow(0); gotPlan != wantPlan {
			t.Fatalf("trial %d: plan share = %v, want %v", trial, gotPlan, wantPlan)
		}
	}
}

// TestFanoutMatchesSinglePass wants Fanout bit-equal, at every worker
// count, to fixed dataset.ShardSize chunks merged in order by hand, and
// equal in counts and close in means to one plain Observe loop.
func TestFanoutMatchesSinglePass(t *testing.T) {
	recs := aggRecords(t, 100_000)
	var chunks [][]dataset.Record
	for lo := 0; lo < len(recs); lo += dataset.ShardSize {
		chunks = append(chunks, recs[lo:min(lo+dataset.ShardSize, len(recs))])
	}
	want := mergeOver(chunks, NewStudy)
	single := NewStudy()
	for _, r := range recs {
		single.Observe(r)
	}
	w, s := want.Tech.Snapshot(), single.Tech.Snapshot()
	for tech := range s.Mean {
		if w.Count[tech] != s.Count[tech] || !closeEnough(w.Mean[tech], s.Mean[tech]) {
			t.Errorf("%v: chunked (%v,%d), single pass (%v,%d)", tech,
				w.Mean[tech], w.Count[tech], s.Mean[tech], s.Count[tech])
		}
	}
	if !reflect.DeepEqual(want.Dist, single.Dist) || !reflect.DeepEqual(want.WiFi, single.WiFi) {
		t.Error("chunked value lists differ from the single pass's")
	}
	for _, workers := range []int{1, 2, 7, runtime.GOMAXPROCS(0), 0} {
		if got := Fanout(recs, workers, NewStudy); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: Study differs from the chunk-by-chunk merge", workers)
		}
	}
}

func TestFanoutEmptyAndTiny(t *testing.T) {
	if got := Fanout(nil, 4, NewTechAgg).Snapshot(); len(got.Count) != 0 {
		t.Errorf("empty input produced counts: %v", got.Count)
	}
	recs := aggRecords(t, 3)
	got := Fanout(recs, 16, NewTechAgg).Snapshot()
	var n int
	for _, c := range got.Count {
		n += c
	}
	if n != len(recs) {
		t.Errorf("tiny input: counted %d records, want %d", n, len(recs))
	}
}

// ---------------------------------------------------------------------------
// Benchmarks: legacy vs aggregator, plus the one-pass Study.
// ---------------------------------------------------------------------------

func benchRecords(b *testing.B) []dataset.Record {
	b.Helper()
	return aggRecords(b, 200_000)
}

func BenchmarkAggAverageByTech(b *testing.B) {
	recs := benchRecords(b)
	b.Run("legacy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			legacyAverageByTech(recs)
		}
	})
	b.Run("agg", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			single(recs, NewTechAgg()).Snapshot()
		}
	})
}

func BenchmarkAggByAndroidVersion(b *testing.B) {
	recs := benchRecords(b)
	b.Run("legacy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			legacyByAndroidVersion(recs)
		}
	})
	b.Run("agg", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			single(recs, NewVersionAgg()).Snapshot()
		}
	})
}

func BenchmarkAggByISP(b *testing.B) {
	recs := benchRecords(b)
	b.Run("legacy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			legacyByISP(recs)
		}
	})
	b.Run("agg", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			single(recs, NewISPAgg()).Snapshot()
		}
	})
}

func BenchmarkAggByBand(b *testing.B) {
	recs := benchRecords(b)
	b.Run("legacy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			legacyByBand(recs, spectrum.LTE)
		}
	})
	b.Run("agg", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			single(recs, NewBandAgg()).Snapshot(spectrum.LTE)
		}
	})
}

func BenchmarkAggDiurnal(b *testing.B) {
	recs := benchRecords(b)
	b.Run("legacy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			legacyDiurnal(recs, dataset.Tech4G)
		}
	})
	b.Run("agg", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			single(recs, NewDiurnalAgg()).Snapshot(dataset.Tech4G)
		}
	})
}

func BenchmarkAggStudy(b *testing.B) {
	recs := benchRecords(b)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Fanout(recs, workers, NewStudy)
			}
		})
	}
}
