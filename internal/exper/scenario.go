package exper

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sync"

	"github.com/mobilebandwidth/swiftest/internal/baseline"
	"github.com/mobilebandwidth/swiftest/internal/core"
	"github.com/mobilebandwidth/swiftest/internal/dataset"
	"github.com/mobilebandwidth/swiftest/internal/estimate"
	"github.com/mobilebandwidth/swiftest/internal/faults"
	"github.com/mobilebandwidth/swiftest/internal/gmm"
	"github.com/mobilebandwidth/swiftest/internal/linksim"
	"github.com/mobilebandwidth/swiftest/internal/obs"
	"github.com/mobilebandwidth/swiftest/internal/ranprofile"
	"github.com/mobilebandwidth/swiftest/internal/stats"
)

// NamedFaultPlan pairs a display name with a fault plan applied link-wide —
// every flow on the access link (Swiftest's and the baselines' alike) sees
// the same RAN-side fault, so algorithms are compared under identical
// adversity. A nil Plan is the fault-free control.
type NamedFaultPlan struct {
	Name string
	Plan *faults.Plan
}

// BuiltinFaultPlans are the standard fault plans of campaigns, the training
// replay and the paired evaluation: the fault-free control, a mid-test
// burst-loss episode, and a short access blackout.
func BuiltinFaultPlans() []NamedFaultPlan {
	return []NamedFaultPlan{
		{Name: "none"},
		{Name: "burst-loss", Plan: &faults.Plan{Seed: 1, Faults: []faults.Fault{
			{Kind: faults.BurstLoss, Server: faults.AllServers, AtMS: 800, DurationMS: 600, Prob: 0.35},
		}}},
		{Name: "blackout", Plan: &faults.Plan{Seed: 1, Faults: []faults.Fault{
			{Kind: faults.Blackout, Server: faults.AllServers, AtMS: 1000, DurationMS: 350},
		}}},
	}
}

// sweepDefaults fills the three settings every sweep shares: an empty profile
// list selects the whole library, an empty plan list BuiltinFaultPlans (given
// plans are validated), and a non-positive run count 3.
func sweepDefaults(profiles []string, plans []NamedFaultPlan, runs int) ([]string, []NamedFaultPlan, int, error) {
	if len(profiles) == 0 {
		profiles = ranprofile.Names()
	}
	if len(plans) == 0 {
		plans = BuiltinFaultPlans()
	}
	for _, fp := range plans {
		if fp.Plan != nil {
			if err := fp.Plan.Validate(); err != nil {
				return nil, nil, 0, fmt.Errorf("exper: fault plan %q: %w", fp.Name, err)
			}
		}
	}
	if runs <= 0 {
		runs = 3
	}
	return profiles, plans, runs, nil
}

func planNames(plans []NamedFaultPlan) []string {
	names := make([]string, len(plans))
	for i, fp := range plans {
		names[i] = fp.Name
	}
	return names
}

// runSeed derives the seed of run number run of a source (a profile or a
// technology name) from the sweep seed: runs with equal (seed, source, run)
// measure the identical link, so every cell of a source is paired.
func runSeed(seed int64, source string, run int) int64 {
	h := fnv.New64a()
	h.Write([]byte(source))
	return int64(stats.SplitMix64(uint64(seed) ^ h.Sum64() ^ uint64(run)*stats.SplitMix64Gamma))
}

// oracleMbps is the yardstick of one run: the mean capacity link offers over
// estimate.BTSAppDuration, the span of the paper's flooding ground truth.
// link is a run's link with no flow and no fault. Its capacity path is a
// function of the run's seed alone, so this is the capacity every contestant
// of the run was offered, whatever it opened and whatever fault its cell
// injected. A shaped link is scored against its capacity before shaping,
// which only delivered bytes engage.
func oracleMbps(link *linksim.Link) float64 {
	for link.Now() < estimate.BTSAppDuration {
		link.Advance()
	}
	return link.CapacityMbit() / estimate.BTSAppDuration.Seconds()
}

// algorithm is one row of a sweep's algorithm table. A row with a prober
// floods the link with that baseline; a row without runs the Swiftest engine
// under policy, nil being the §5.1 crossing default. A drifted row runs on a
// Scenario link with its capacity scaled by the run's pair drift.
type algorithm struct {
	name    string
	policy  core.TerminationPolicy
	prober  baseline.Prober
	drifted bool
}

// sweep is one seeded run matrix: every source × algorithm × fault plan
// cell, in that order, measured runs times. The sources are the RAN
// profiles, then the Scenario technologies. The campaign, the training
// replay, the paired evaluation and the §5.3 contests all run through
// runSweep, so their reports differ by sources, algorithm rows and fault
// plans only.
type sweep struct {
	profiles []string
	techs    []dataset.Tech
	algs     []algorithm
	plans    []NamedFaultPlan
	runs     int
	seed     int64
	workers  int // zero selects 1
	reg      *obs.Registry
}

// source is one link population of a sweep: a RAN profile, or a
// technology's Scenario draws (profile nil). Run r's links all start from
// seeds[r], and oracle[r] is the oracleMbps of its flow-less, fault-free
// link. model is the technology's bandwidth model, the engine's prior.
type source struct {
	name    string
	tech    dataset.Tech
	profile *ranprofile.Profile
	model   *gmm.Model
	seeds   []int64
	oracle  []float64
	cfgs    []linksim.Config // a Scenario source's link of each run
	drift   []float64        // and the capacity factor of its drifted rows
}

// sources resolves s's profiles and technologies and draws every run's seed,
// link and oracle. A Scenario run draws its link, then its pair drift, from
// an rng of the run's seed.
func (s sweep) sources() ([]*source, error) {
	var srcs []*source
	for _, name := range s.profiles {
		profile, err := ranprofile.Get(name)
		if err != nil {
			return nil, err
		}
		srcs = append(srcs, &source{name: name, tech: profile.DatasetTech(), profile: profile})
	}
	for _, tech := range s.techs {
		srcs = append(srcs, &source{name: tech.String(), tech: tech})
	}
	for _, src := range srcs {
		model, err := dataset.TechModel(src.tech, 2021)
		if err != nil {
			return nil, fmt.Errorf("exper: %w", err)
		}
		src.model, src.seeds, src.oracle = model, make([]int64, s.runs), make([]float64, s.runs)
		for run := range src.seeds {
			src.seeds[run] = runSeed(s.seed, src.name, run)
			if src.profile == nil {
				rng := rand.New(rand.NewSource(src.seeds[run]))
				draw, err := Scenario{Tech: src.tech, Model: model, ShapedFraction: -1}.Draw(rng)
				if err != nil {
					return nil, err
				}
				src.cfgs = append(src.cfgs, draw.Config)
				src.drift = append(src.drift, max(1+PairDriftSigma*rng.NormFloat64(), 0.5))
			}
			link, _ := src.link(run, nil, false, nil) // no registry: its rows count measured links only
			src.oracle[run] = oracleMbps(link)
		}
	}
	return srcs, nil
}

// link builds run's link under plan: the link's noise, and a RAN link's
// state machine, start from the run's seed, and plan's faults (nil for none)
// apply link-wide: the access link is the plan's server 0, and AllServers
// faults match it too. A RAN machine's hook supplies capacity and RTT, and
// reg, when non-nil, receives its dwell and handover instruments. A Scenario
// link has no machine; drifted scales its capacity by the run's pair drift.
func (src *source) link(run int, plan *faults.Plan, drifted bool, reg *obs.Registry) (*linksim.Link, *ranprofile.Machine) {
	var cfg linksim.Config
	var machine *ranprofile.Machine
	if src.profile != nil {
		machine = ranprofile.NewMachine(src.profile, src.seeds[run], ranprofile.MachineOptions{
			Metrics: ranprofile.NewLinkMetrics(reg),
		})
		cfg.StateHook = machine.Hook()
	} else {
		cfg = src.cfgs[run]
		if drifted {
			cfg.CapacityMbps *= src.drift[run]
		}
	}
	cfg.Impair = plan.Injector().Impair(0, 0)
	return linksim.MustNew(cfg, src.seeds[run]), machine
}

// sweepCell is one cell of a sweep: run r measures its source's run r and
// is scored against oracle[r]. out holds the runs as reduced.
type sweepCell[T any] struct {
	*source
	alg  algorithm
	plan NamedFaultPlan
	out  []T
}

// runSweep measures every (cell, run) of s on s.workers goroutines. reduce
// turns a finished run — the algorithm's result, a prober's report as a
// converged Result, and the link's RAN chain (nil on a Scenario link) —
// into what the caller keeps, inside the worker. Cells come back in sweep
// order and runs in run order, whatever the completion order, so the
// caller's sums are a pure function of s.
func runSweep[T any](ctx context.Context, s sweep, reduce func(core.Result, *ranprofile.Machine) T) ([]sweepCell[T], error) {
	srcs, err := s.sources()
	if err != nil {
		return nil, err
	}
	var cells []sweepCell[T]
	for _, src := range srcs {
		for _, alg := range s.algs {
			for _, fp := range s.plans {
				cells = append(cells, sweepCell[T]{source: src, alg: alg, plan: fp, out: make([]T, s.runs)})
			}
		}
	}

	// Job i is run i%s.runs of cell i/s.runs; errs has a slot for each.
	errs := make([]error, len(cells)*s.runs)
	var (
		wg   sync.WaitGroup
		next = make(chan int)
	)
	for w := min(max(s.workers, 1), len(errs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range next {
				cell, run := &cells[idx/s.runs], idx%s.runs
				link, machine := cell.link(run, cell.plan.Plan, cell.alg.drifted, s.reg)
				if p := cell.alg.prober; p != nil {
					rep := p.Run(link)
					cell.out[run] = reduce(core.Result{Bandwidth: rep.Result, Duration: rep.Duration, DataMB: rep.DataMB, Samples: rep.Samples, Converged: true}, machine)
				} else {
					// The probe never declares its server lost (LostAfter is
					// math.MaxInt): a sweep's faults hit the access link, not a
					// server, and a patient client keeps sampling through them.
					// The live client's K = 4 would end every swiftest ×
					// blackout cell at 1.2 s instead of 4.5 s.
					probe := core.NewSimProbe(link, core.SimPoolConfig{LostAfter: math.MaxInt})
					res, err := core.RunContext(ctx, probe, core.Config{Model: cell.model, MaxDuration: SwiftestMaxDuration, Terminate: cell.alg.policy})
					probe.Close()
					if err != nil {
						errs[idx] = fmt.Errorf("exper: engine on %s: %w", cell.name, err)
					} else {
						cell.out[run] = reduce(res, machine)
					}
				}
			}
		}()
	}
feed:
	for idx := range errs {
		select {
		case next <- idx:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("exper: sweep cancelled: %w", err)
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return cells, nil
}

// crossingReplay replays the §5.1 crossing rule over a finished sample
// stream: what `-terminate crossing` would have reported on it, and whether
// the rule stopped at all. A stream it never stops on reports the deadline
// trailing-window mean, exactly like the engine.
func crossingReplay(samples []float64) (mbps float64, stopped bool) {
	var cp core.CrossingPolicy
	for n := 1; n <= len(samples); n++ {
		if d := cp.Decide(samples[:n], nil, 0); d.Stop {
			return d.Estimate, true
		}
	}
	return stats.Mean(estimate.Tail(samples)), false
}
