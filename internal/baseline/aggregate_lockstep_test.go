package baseline_test

import (
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/baseline"
	"github.com/mobilebandwidth/swiftest/internal/dataset"
	"github.com/mobilebandwidth/swiftest/internal/exper"
	"github.com/mobilebandwidth/swiftest/internal/faults"
	"github.com/mobilebandwidth/swiftest/internal/linksim"
	"github.com/mobilebandwidth/swiftest/internal/ranprofile"
)

// ranLink builds a campaign run's link: the profile's state machine and the
// link's noise both start from seed, and plan (nil for none) applies
// link-wide.
func ranLink(profile *ranprofile.Profile, plan *faults.Plan, seed int64) *linksim.Link {
	m := ranprofile.NewMachine(profile, seed, ranprofile.MachineOptions{})
	return linksim.MustNew(linksim.Config{StateHook: m.Hook(), Impair: plan.Injector().Impair(0, 0)}, seed)
}

// TestProbersMatchReference runs every TCP prober and its reference body
// (aggregate_ref_test.go) on twin links built from the same seed: every RAN
// profile under each builtin fault plan at five seeds, the way a campaign
// builds them, and a static link with spurious loss, dips and shaping. Every
// Report field and every sample must be equal by bits — the campaign digests
// rest on it.
func TestProbersMatchReference(t *testing.T) {
	type twin func() *linksim.Link
	check := func(t *testing.T, p baseline.Prober, mk twin) {
		t.Helper()
		got, want := p.Run(mk()), baseline.RunReference(p, mk())
		if got.Duration != want.Duration || got.Flows != want.Flows || len(got.Samples) != len(want.Samples) ||
			math.Float64bits(got.Result) != math.Float64bits(want.Result) ||
			math.Float64bits(got.DataMB) != math.Float64bits(want.DataMB) {
			t.Fatalf("%s: report {%v %v %v %d samples, %d flows}, reference {%v %v %v %d samples, %d flows}",
				p.Name(), got.Result, got.Duration, got.DataMB, len(got.Samples), got.Flows,
				want.Result, want.Duration, want.DataMB, len(want.Samples), want.Flows)
		}
		for i := range got.Samples {
			if math.Float64bits(got.Samples[i]) != math.Float64bits(want.Samples[i]) {
				t.Fatalf("%s: sample %d = %v, reference %v", p.Name(), i, got.Samples[i], want.Samples[i])
			}
		}
	}
	probers := func(tech dataset.Tech) []baseline.Prober {
		model, err := dataset.TechModel(tech)
		if err != nil {
			t.Fatal(err)
		}
		return []baseline.Prober{&baseline.FAST{}, &baseline.FastBTS{}, &baseline.BTSApp{}, &baseline.TCPSwiftest{Model: model}}
	}

	for _, name := range ranprofile.Names() {
		profile, err := ranprofile.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		ps := probers(profile.DatasetTech())
		for _, plan := range exper.BuiltinFaultPlans() {
			for seed := int64(1); seed <= 5; seed++ {
				t.Run(fmt.Sprintf("%s/%s/%d", name, plan.Name, seed), func(t *testing.T) {
					for _, p := range ps {
						check(t, p, func() *linksim.Link { return ranLink(profile, plan.Plan, seed) })
					}
				})
			}
		}
	}

	static := linksim.Config{
		CapacityMbps: 240, RTT: 35 * time.Millisecond, LossRate: 0.004, Fluctuation: 0.08,
		Dipping: &linksim.Dips{RatePerSec: 0.8, Depth: 0.5, Duration: 150 * time.Millisecond},
		Shaping: &linksim.Shaper{BurstMB: 60, SustainedMbps: 90},
	}
	ps := probers(dataset.Tech4G)
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("static/%d", seed), func(t *testing.T) {
			for _, p := range ps {
				check(t, p, func() *linksim.Link { return linksim.MustNew(static, seed) })
			}
		})
	}
}

// BenchmarkProberTick times the flood tick of the TCP probers — one Advance
// and one CUBIC tick per flow — on a 4g-drive link under the campaign's
// burst-loss plan. An op is one whole test on a fresh link; ns/tick divides
// the time by the ticks the tests simulated. fast+fastbts is both probers
// on one flood, which runs until the later of the two stops.
func BenchmarkProberTick(b *testing.B) {
	profile, err := ranprofile.Get("4g-drive")
	if err != nil {
		b.Fatal(err)
	}
	var plan *faults.Plan
	for _, fp := range exper.BuiltinFaultPlans() {
		if fp.Name == "burst-loss" {
			plan = fp.Plan
		}
	}
	if plan == nil {
		b.Fatal("no burst-loss plan")
	}
	for _, p := range []baseline.Prober{&baseline.FAST{}, &baseline.FastBTS{}, &baseline.BTSApp{}} {
		b.Run(p.Name(), func(b *testing.B) {
			b.ReportAllocs()
			var ticks time.Duration
			for i := range b.N {
				ticks += p.Run(ranLink(profile, plan, int64(i%16+1))).Duration / linksim.Tick
			}
			b.ReportMetric(float64(b.Elapsed())/float64(ticks), "ns/tick")
		})
	}
	b.Run("fast+fastbts", func(b *testing.B) {
		b.ReportAllocs()
		var ticks time.Duration
		for i := range b.N {
			reps := baseline.Flood(ranLink(profile, plan, int64(i%16+1)), &baseline.FAST{}, &baseline.FastBTS{})
			ticks += max(reps[0].Duration, reps[1].Duration) / linksim.Tick
		}
		b.ReportMetric(float64(b.Elapsed())/float64(ticks), "ns/tick")
	})
}
