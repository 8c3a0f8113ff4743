// Benchmark harness: the per-test cost of an emulated Swiftest test,
// ablation benches for the design choices DESIGN.md calls out, and the
// generate→aggregate engine. The paper's claims are checked by
// internal/claims (TestPaperClaims, `swiftest claims`), not here.
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
	"github.com/mobilebandwidth/swiftest/internal/core"
	"github.com/mobilebandwidth/swiftest/internal/dataset"
	"github.com/mobilebandwidth/swiftest/internal/deploy"
	"github.com/mobilebandwidth/swiftest/internal/estimate"
	"github.com/mobilebandwidth/swiftest/internal/exper"
	"github.com/mobilebandwidth/swiftest/internal/gmm"
	"github.com/mobilebandwidth/swiftest/internal/linksim"
	"github.com/mobilebandwidth/swiftest/internal/spectrum"
	"github.com/mobilebandwidth/swiftest/internal/stats"
)

// benchRecords is the per-iteration corpus size for the generate→aggregate
// benches.
const benchRecords = 60000

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
	m, err := dataset.TechModel(dataset.Tech5G)
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
			r, err := core.RunContext(context.Background(), p, core.Config{Model: model, Terminate: crossingAt(tc.thresh)})
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

// crossingAt is the §5.1 crossing rule at a swept threshold: stop when the
// last estimate.Window samples agree within it, reporting their mean.
type crossingAt float64

func (crossingAt) Name() string { return "crossing" }

func (c crossingAt) Decide(samples []float64, _ []estimate.TrajectoryPoint, _ time.Duration) core.Decision {
	if len(samples) < estimate.Window {
		return core.Decision{}
	}
	tail := samples[len(samples)-estimate.Window:]
	if !estimate.Stable(tail, float64(c)) {
		return core.Decision{}
	}
	return core.Decision{Stop: true, Estimate: stats.Mean(tail)}
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
		recs := make([]dataset.Record, benchRecords)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := range recs {
				recs[j] = g.Next()
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
	g := dataset.MustNewGenerator(dataset.Config{Year: 2021, Seed: 1})
	recs := make([]dataset.Record, benchRecords)
	for i := range recs {
		recs[i] = g.Next()
	}
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
