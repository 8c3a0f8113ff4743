// Package claims is the one place a number from the paper lives. Table holds
// one row per claim: where the paper states it, the paper's value, how this
// repository measures it over a shared seeded Corpus, the predicate that
// decides whether the claim holds, and the footnote explaining any
// departure. TestPaperClaims runs the table, `swiftest claims` prints it,
// and EXPERIMENTS.md carries that output verbatim.
package claims

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"strings"

	"github.com/mobilebandwidth/swiftest/internal/analysis"
	"github.com/mobilebandwidth/swiftest/internal/dataset"
	"github.com/mobilebandwidth/swiftest/internal/deploy"
	"github.com/mobilebandwidth/swiftest/internal/exper"
	"github.com/mobilebandwidth/swiftest/internal/gmm"
	"github.com/mobilebandwidth/swiftest/internal/stats"
)

// Row is one claim. ID is the figure key (fig4, tab1, sec5.3), a dot and the
// quantity; Src is where the paper states it ("Fig 4", "§5.3"); Note keys
// the footnote in Notes that explains a departure. Holds is the claim as a
// predicate over the measured values, its tolerance or ordering included.
type Row struct {
	ID, Src, Quantity, Paper, Note string
	Measure                        func(*Corpus) M
	Holds                          func(v []float64) bool
}

// M is one measurement: the values Holds reads and how they print.
type M struct {
	V []float64
	S string
}

// m formats v with format and keeps v for the predicate.
func m(format string, v ...float64) M {
	return M{V: v, S: fmt.Sprintf(format, col(v, func(x float64) any { return x })...)}
}

// col maps xs to one value each.
func col[T, R any](xs []T, f func(T) R) []R {
	out := make([]R, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

// The corpus's scale: 2021 records (2020 gets half), §5.3 links per
// technology, and the §5.2 span in days (Fig 26 simulates one month).
const (
	records   = 600000
	links     = 150
	traceDays = 7
)

// Corpus is the seeded input every row measures, each part built on first
// use and kept. Workers only changes how fast records are generated and
// links measured, never the results. Not safe for concurrent use.
type Corpus struct {
	seed    int64
	ctx     context.Context
	workers int
	memo    map[string]part
	err     error // first failure seen by the row being measured
}

type part struct {
	v   any
	err error
}

// NewCorpus returns an empty corpus; ctx cancels the §5.3 sweep between
// runs. A non-positive workers selects GOMAXPROCS.
func NewCorpus(ctx context.Context, seed int64, workers int) *Corpus {
	return &Corpus{seed: seed, ctx: ctx, workers: workers, memo: map[string]part{}}
}

// get returns the part named key, building it on first use. A build error
// stays with the part and fails every row that reads it.
func get[T any](c *Corpus, key string, build func() (T, error)) T {
	p, ok := c.memo[key]
	if !ok {
		v, err := build()
		p = part{v, err}
		c.memo[key] = p
	}
	if p.err != nil {
		c.err = cmp.Or(c.err, fmt.Errorf("%s: %w", key, p.err))
	}
	v, _ := p.v.(T)
	return v
}

// records returns the 2020 and 2021 corpora.
func (c *Corpus) records() (r20, r21 []dataset.Record) {
	r := get(c, "records", func() ([2][]dataset.Record, error) {
		gen := func(year int, seed int64, n int) []dataset.Record {
			return dataset.MustNewGenerator(dataset.Config{Year: year, Seed: seed}).GenerateParallel(n, c.workers)
		}
		return [2][]dataset.Record{gen(2020, c.seed+1, records/2), gen(2021, c.seed, records)}, nil
	})
	return r[0], r[1]
}

// study aggregates the 2021 records in one pass.
func (c *Corpus) study() *analysis.Study {
	return get(c, "study", func() (*analysis.Study, error) {
		_, r21 := c.records()
		return analysis.Fanout(r21, c.workers, analysis.NewStudy), nil
	})
}

// wifi is the 2021 WiFi breakdown on one radio band (Figs 14, 15).
func (c *Corpus) wifi(radio dataset.RadioBand) analysis.WiFiBreakdown {
	return get(c, "wifi/"+radio.String(), func() (analysis.WiFiBreakdown, error) {
		_, r21 := c.records()
		return analysis.WiFiDistributions(r21, &radio), nil
	})
}

// pdf is a fitted multi-modal model of the 2021 records (Figs 16, 18, 19).
func (c *Corpus) pdf(f analysis.Filter, name string, hi float64) analysis.PDFResult {
	return get(c, "pdf/"+name, func() (analysis.PDFResult, error) {
		_, r21 := c.records()
		return analysis.BandwidthPDF(r21, f, hi, c.seed)
	})
}

// model is a technology's calibrated 2021 bandwidth mixture.
func (c *Corpus) model(t dataset.Tech) *gmm.Model {
	return get(c, "model/"+t.String(), func() (*gmm.Model, error) { return dataset.TechModel(t) })
}

// techs are the technologies the §5.3 sweep draws links for, in table order.
var techs = []dataset.Tech{dataset.Tech4G, dataset.Tech5G, dataset.TechWiFi}

// contests is the §5.3 sweep's runs of techs[i], one sweep measuring all
// three; -1 joins them.
func (c *Corpus) contests(i int) []exper.Contest {
	all := get(c, "contests", func() ([][]exper.Contest, error) {
		return exper.RunContests(c.ctx, techs, links, c.seed, c.workers)
	})
	if i < 0 || all == nil { // a failed sweep has no runs
		return slices.Concat(all...)
	}
	return all[i]
}

// ramps is Fig 17: one algorithm's mean ramp time (s) at 100, 300, … 1100 Mbps.
func (c *Corpus) ramps(alg string) (out []float64) {
	for _, p := range get(c, "ramps", func() ([]exper.RampPoint, error) {
		return exper.SlowStartSweep([]float64{100, 300, 500, 700, 900, 1100}, 3, c.seed), nil
	}) {
		if p.Algorithm == alg {
			out = append(out, p.MeanRamp.Seconds())
		}
	}
	return out
}

// plans are §5.2's purchase for 1860 Mbps of demand at a 7.5 % margin and
// BTS-APP's legacy allocation.
func (c *Corpus) plans() (swiftest, legacy deploy.Plan) {
	p := get(c, "plans", func() ([2]deploy.Plan, error) {
		s, err := deploy.PlanPurchase(deploy.SyntheticCatalogue(), 1860, 0.075, deploy.PlanOptions{MinServers: 20})
		l, lerr := deploy.LegacyBTSAppFleet(deploy.SyntheticCatalogue())
		return [2]deploy.Plan{s, l}, cmp.Or(err, lerr)
	})
	return p[0], p[1]
}

// utilization is Fig 26: the plan's per-minute server utilization (%).
func (c *Corpus) utilization() *stats.Sample {
	return get(c, "utilization", func() (*stats.Sample, error) {
		plan, _ := c.plans()
		u, err := deploy.SimulateUtilization(plan, deploy.UtilizationOptions{
			TestsPerDay: 10000, DrawBandwidth: c.model(dataset.Tech5G).Sample, Seed: c.seed})
		return stats.NewSample(u), err
	})
}

// trace is §5.2's legacy-fleet workload: BTS-APP's 0.2M tests a day from
// 35 % 5G and 65 % 4G clients.
func (c *Corpus) trace() deploy.TraceSummary {
	return get(c, "trace", func() (deploy.TraceSummary, error) {
		m5, m4 := c.model(dataset.Tech5G), c.model(dataset.Tech4G)
		tr, err := deploy.GenerateTrace(deploy.TraceOptions{Days: traceDays, TestsPerDay: 200000, Seed: c.seed,
			DrawBandwidth: func(rng *rand.Rand) float64 {
				if rng.Float64() < 0.35 {
					return m5.Sample(rng)
				}
				return m4.Sample(rng)
			}})
		sum, serr := deploy.SummarizeTrace(tr, deploy.LegacyFleetMbps)
		return sum, cmp.Or(err, serr)
	})
}

// check measures r; a build error fails the row.
func (c *Corpus) check(r Row) (M, error) {
	c.err = nil
	v := r.Measure(c)
	return v, c.err
}

// figure is a row's figure key: its ID up to the last dot.
func figure(id string) string { return id[:strings.LastIndex(id, ".")] }

// Select returns the rows only names: comma-separated row IDs or figure
// keys. Empty selects every row; a name matching none is an error.
func Select(only string) ([]Row, error) {
	if only == "" {
		return Table, nil
	}
	var out []Row
	for _, name := range strings.Split(strings.ToLower(only), ",") {
		name, n := strings.TrimSpace(name), len(out)
		for _, r := range Table {
			if name == r.ID || name == figure(r.ID) {
				out = append(out, r)
			}
		}
		if len(out) == n {
			return nil, fmt.Errorf("claims: no row or figure %q", name)
		}
	}
	return out, nil
}

// Run checks rows in order and writes them to w as one markdown table, a
// failed row marked ✗, followed by the footnotes the rows cite, numbered in
// order of first citation. It returns the IDs of the rows that failed.
func (c *Corpus) Run(w io.Writer, rows []Row) (failed []string, err error) {
	var b strings.Builder
	b.WriteString("| Exp | Quantity | Paper | Measured |\n|---|---|---|---|\n")
	var cited []string
	for _, r := range rows {
		v, err := c.check(r)
		measured := v.S
		if err != nil {
			measured = "error: " + err.Error()
		}
		if r.Note != "" {
			if !slices.Contains(cited, r.Note) {
				cited = append(cited, r.Note)
			}
			measured += " " + superscripts[slices.Index(cited, r.Note)]
		}
		if err != nil || !r.Holds(v.V) {
			measured += " ✗"
			failed = append(failed, r.ID)
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %s |\n", r.Src, r.Quantity, r.Paper, measured)
	}
	for i, key := range cited {
		fmt.Fprintf(&b, "\n%s %s\n", superscripts[i], Notes[key])
	}
	_, err = io.WriteString(w, b.String())
	return failed, err
}

// superscripts number the footnotes; Notes holds no more.
var superscripts = strings.Fields("¹ ² ³ ⁴ ⁵ ⁶ ⁷ ⁸ ⁹ ¹⁰ ¹¹ ¹² ¹³ ¹⁴ ¹⁵ ¹⁶")

// rel holds when v[i] is within tol·want[i] of want[i] for every want
// given; abs when it is within tol.
func rel(tol float64, want ...float64) func([]float64) bool {
	return each(want, func(x, w float64) bool { return near(x, w, tol) })
}
func abs(tol float64, want ...float64) func([]float64) bool {
	return each(want, func(x, w float64) bool { return math.Abs(x-w) <= tol })
}
func each(want []float64, ok func(x, w float64) bool) func([]float64) bool {
	return func(v []float64) bool {
		for i, w := range want {
			if !ok(v[i], w) {
				return false
			}
		}
		return true
	}
}

// in holds when every value lies in [lo, hi]; at when v[i] does.
func in(lo, hi float64) func([]float64) bool {
	return func(v []float64) bool { return slices.Min(v) >= lo && slices.Max(v) <= hi }
}
func at(i int, lo, hi float64) func([]float64) bool {
	return func(v []float64) bool { return v[i] >= lo && v[i] <= hi }
}

// trend holds when at least share of the value pairs (i < j) increase;
// trend(1) is a strict rise, lower shares tolerate noise between neighbours.
func trend(share float64) func([]float64) bool {
	return func(v []float64) bool {
		up, pairs := 0.0, 0.0
		for i := range v {
			for _, x := range v[i+1:] {
				up, pairs = up+bit[x > v[i]], pairs+1
			}
		}
		return pairs > 0 && up >= share*pairs
	}
}

var rising = trend(1)

// and holds when every predicate does.
func and(ps ...func([]float64) bool) func([]float64) bool {
	return func(v []float64) bool {
		for _, p := range ps {
			if !p(v) {
				return false
			}
		}
		return true
	}
}

// near reports whether x is within tol·want of want.
func near(x, want, tol float64) bool { return math.Abs(x-want) <= tol*math.Abs(want) }

// bit encodes a boolean measurement.
var bit = map[bool]float64{true: 1}
