package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/faults"
	"github.com/mobilebandwidth/swiftest/internal/linksim"
	"github.com/mobilebandwidth/swiftest/internal/ranprofile"
)

// simProbeRef is the single-flow probe SimProbe replaced, kept verbatim as
// the reference its one-server pool must reproduce bit for bit. Its sampler
// is linksim's former Sampler, rewritten over the flow's exported readers.
type simProbeRef struct {
	link    *linksim.Link
	flow    *linksim.Flow
	sampler *samplerRef
	start   time.Duration
}

func newSimProbeRef(link *linksim.Link) *simProbeRef {
	flow := link.NewFlow()
	return &simProbeRef{
		link:    link,
		flow:    flow,
		sampler: newSamplerRef(link, flow),
		start:   link.Now(),
	}
}

func (sp *simProbeRef) SetRate(mbps float64) error {
	if mbps < 0 {
		return fmt.Errorf("core: negative probing rate %g", mbps)
	}
	sp.flow.SetOffered(mbps)
	return nil
}

func (sp *simProbeRef) NextSample() (float64, bool) {
	ticks := int(sp.sampler.Interval() / linksim.Tick)
	for i := 0; i < ticks; i++ {
		sp.link.Advance()
	}
	return sp.sampler.Take(), true
}

func (sp *simProbeRef) Elapsed() time.Duration { return sp.link.Now() - sp.start }

func (sp *simProbeRef) SampleRTT() (time.Duration, bool) { return sp.flow.RTT(), true }

func (sp *simProbeRef) DataMB() float64 { return sp.flow.DeliveredBytes() / 1e6 }

func (sp *simProbeRef) Close() { sp.flow.Close() }

// samplerRef is linksim's former Sampler: a flow's deliveries as periodic
// bandwidth samples over the standard 50 ms interval.
type samplerRef struct {
	link     *linksim.Link
	flow     *linksim.Flow
	interval time.Duration
	lastBits float64
	lastAt   time.Duration
}

func newSamplerRef(link *linksim.Link, flow *linksim.Flow) *samplerRef {
	return &samplerRef{link: link, flow: flow, interval: linksim.SampleInterval, lastAt: link.Now()}
}

func (s *samplerRef) Interval() time.Duration { return s.interval }

func (s *samplerRef) Take() float64 {
	now := s.link.Now()
	elapsed := (now - s.lastAt).Seconds()
	if elapsed <= 0 {
		return 0
	}
	total := s.flow.DeliveredBytes() * 8
	bits := total - s.lastBits
	s.lastBits = total
	s.lastAt = now
	return bits / elapsed / 1e6
}

// keepRate in a rate schedule leaves the probing rate as it is.
const keepRate = -1

// lockstep drives a SimProbe built with cfg and the reference over twin
// links from mk, one sample per schedule entry (a rate to set first, or
// keepRate), and fails on the first step where a sample, Elapsed,
// SampleRTT or DataMB differs in any bit. The first entry must be a
// positive rate: the pool opens its flow there.
func lockstep(t testing.TB, name string, mk func() *linksim.Link, cfg SimPoolConfig, schedule []float64) {
	t.Helper()
	got, want := NewSimProbe(mk(), cfg), newSimProbeRef(mk())
	defer got.Close()
	defer want.Close()
	for step, rate := range schedule {
		if rate != keepRate {
			gerr, werr := got.SetRate(rate), want.SetRate(rate)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("%s step %d: SetRate(%g) = %v, reference %v", name, step, rate, gerr, werr)
			}
		}
		gs, gok := got.NextSample()
		ws, wok := want.NextSample()
		grtt, grok := got.SampleRTT()
		wrtt, wrok := want.SampleRTT()
		switch {
		case math.Float64bits(gs) != math.Float64bits(ws) || gok != wok:
			t.Fatalf("%s step %d: sample %v/%v, reference %v/%v", name, step, gs, gok, ws, wok)
		case got.Elapsed() != want.Elapsed():
			t.Fatalf("%s step %d: elapsed %v, reference %v", name, step, got.Elapsed(), want.Elapsed())
		case grtt != wrtt || grok != wrok:
			t.Fatalf("%s step %d: RTT %v/%v, reference %v/%v", name, step, grtt, grok, wrtt, wrok)
		case math.Float64bits(got.DataMB()) != math.Float64bits(want.DataMB()):
			t.Fatalf("%s step %d: data %v MB, reference %v MB", name, step, got.DataMB(), want.DataMB())
		}
	}
}

// randomSchedule is n samples of an engine-like rate schedule: a positive
// start, then an occasional jump anywhere in [0, 1000) Mbps, zero included.
func randomSchedule(seed int64, n int) []float64 {
	r := rand.New(rand.NewPCG(uint64(seed), 1))
	schedule := make([]float64, n)
	schedule[0] = 20 + r.Float64()*900
	for i := 1; i < n; i++ {
		schedule[i] = keepRate
		switch r.IntN(10) {
		case 0:
			schedule[i] = r.Float64() * 1000
		case 1:
			schedule[i] = 0
		}
	}
	return schedule
}

// TestSimProbeMatchesReference holds the one-server SimProbe to the probe
// it replaced on static, shaped, dipping and RAN-profile-hooked links, and
// under link-wide burst-loss and blackout plans with a client that never
// declares its server lost (the campaign's engine probe).
func TestSimProbeMatchesReference(t *testing.T) {
	const ms = time.Millisecond
	profiles := ranprofile.Names()
	burst := &faults.Plan{Seed: 3, Faults: []faults.Fault{
		{Kind: faults.BurstLoss, Server: faults.AllServers, AtMS: 300, DurationMS: 900, Prob: 0.4},
	}}
	blackout := &faults.Plan{Faults: []faults.Fault{
		{Kind: faults.Blackout, Server: faults.AllServers, AtMS: 600, DurationMS: 1200},
	}}
	patient := SimPoolConfig{LostAfter: math.MaxInt}
	for seed := int64(1); seed <= 50; seed++ {
		capMbps := 20 + float64(seed*37%900)
		static := linksim.Config{CapacityMbps: capMbps, RTT: 30 * ms, Fluctuation: 0.06, LossRate: 0.02}
		shaped := static
		shaped.Shaping = &linksim.Shaper{BurstMB: 4, SustainedMbps: capMbps / 3}
		dipping := static
		dipping.Dipping = &linksim.Dips{RatePerSec: 3, Depth: 0.7, Duration: 150 * ms}
		profile, err := ranprofile.Get(profiles[int(seed)%len(profiles)])
		if err != nil {
			t.Fatal(err)
		}
		withPlan := func(plan *faults.Plan) linksim.Config {
			c := static
			c.Impair = plan.Injector().Impair(0, 0)
			return c
		}
		for _, tc := range []struct {
			name string
			mk   func() *linksim.Link
			cfg  SimPoolConfig
		}{
			{"static", func() *linksim.Link { return linksim.MustNew(static, seed) }, SimPoolConfig{}},
			{"shaped", func() *linksim.Link { return linksim.MustNew(shaped, seed) }, SimPoolConfig{}},
			{"dipping", func() *linksim.Link { return linksim.MustNew(dipping, seed) }, SimPoolConfig{}},
			{"ranprofile " + profile.Name, func() *linksim.Link {
				m := ranprofile.NewMachine(profile, seed, ranprofile.MachineOptions{})
				return linksim.MustNew(linksim.Config{StateHook: m.Hook()}, seed)
			}, SimPoolConfig{}},
			{"burst-loss", func() *linksim.Link { return linksim.MustNew(withPlan(burst), seed) }, patient},
			{"blackout", func() *linksim.Link { return linksim.MustNew(withPlan(blackout), seed) }, patient},
		} {
			lockstep(t, fmt.Sprintf("%s seed %d", tc.name, seed), tc.mk, tc.cfg, randomSchedule(seed, 80))
		}
	}
}

// FuzzSimProbe varies the link's seed, capacity and fluctuation and the
// rate schedule (one byte per sample, ×4 Mbps; the first is made
// positive) and holds the one-server SimProbe to the reference.
func FuzzSimProbe(f *testing.F) {
	f.Add(int64(1), 300.0, 0.05, []byte{30, 0, 0, 90, 0, 200, 0, 0, 5})
	f.Add(int64(7), 12.5, 0.3, []byte{255, 1, 2, 3, 0, 0, 0, 0, 0, 0})
	f.Add(int64(-4), 2000.0, 0.0, []byte{1})
	f.Fuzz(func(t *testing.T, seed int64, capMbps, fluct float64, rates []byte) {
		if !(capMbps >= 0.5 && capMbps <= 1e5) || math.IsNaN(fluct) || math.IsInf(fluct, 0) || len(rates) == 0 {
			t.Skip()
		}
		if len(rates) > 200 {
			rates = rates[:200]
		}
		cfg := linksim.Config{
			CapacityMbps: capMbps,
			RTT:          30 * time.Millisecond,
			Fluctuation:  math.Mod(math.Abs(fluct), 0.5),
		}
		schedule := make([]float64, len(rates))
		for i, b := range rates {
			schedule[i] = float64(b) * 4
		}
		schedule[0] = math.Max(schedule[0], 1)
		lockstep(t, "fuzz", func() *linksim.Link { return linksim.MustNew(cfg, seed) }, SimPoolConfig{}, schedule)
	})
}
