package exper

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
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

// runSeed derives the seed of run number run of profile from the sweep seed:
// runs with equal (seed, profile, run) measure the identical link, so every
// cell of a profile is paired.
func runSeed(seed int64, profile string, run int) int64 {
	h := fnv.New64a()
	h.Write([]byte(profile))
	return int64(stats.SplitMix64(uint64(seed) ^ h.Sum64() ^ uint64(run)*stats.SplitMix64Gamma))
}

// newLink builds the link of one run: the profile's state machine and the
// link's noise both start from seed, and plan's faults (nil for none) apply
// link-wide: the access link is the plan's server 0, and AllServers faults
// match it too. reg, when non-nil, receives the machine's dwell and handover
// instruments. The machine's hook supplies capacity and RTT, so the link
// config is always valid.
func newLink(profile *ranprofile.Profile, plan *faults.Plan, seed int64, reg *obs.Registry) (*linksim.Link, *ranprofile.Machine) {
	machine := ranprofile.NewMachine(profile, seed, ranprofile.MachineOptions{
		Metrics: ranprofile.NewLinkMetrics(reg),
	})
	return linksim.MustNew(linksim.Config{
		StateHook: machine.Hook(),
		Impair:    plan.Injector().Impair(0, 0),
	}, seed), machine
}

// oracleMbps is the yardstick of one run: the mean capacity its link offers
// over estimate.BTSAppDuration, the span of the paper's flooding ground truth.
// The link carries no flow and no fault. Its capacity path is a function of
// (profile, seed) alone, so this is the capacity every contestant of the run
// was offered, whatever it opened and whatever fault its cell injected. No
// registry: its rows count measured links only.
func oracleMbps(profile *ranprofile.Profile, seed int64) float64 {
	link, _ := newLink(profile, nil, seed, nil)
	for link.Now() < estimate.BTSAppDuration {
		link.Advance()
	}
	return link.CapacityMbit() / estimate.BTSAppDuration.Seconds()
}

// engineOn runs the Swiftest engine over link for at most
// SwiftestMaxDuration, stopping by policy (nil is the §5.1 crossing default).
//
// The probe never declares its server lost (LostAfter is math.MaxInt): a
// campaign's faults hit the access link, not a server, and a patient client
// keeps sampling through them. The live client's K = 4 would end every
// swiftest × blackout cell at 1.2 s instead of 4.5 s.
func engineOn(ctx context.Context, link *linksim.Link, model *gmm.Model, policy core.TerminationPolicy) (core.Result, error) {
	probe := core.NewSimProbe(link, core.SimPoolConfig{LostAfter: math.MaxInt})
	defer probe.Close()
	return core.RunContext(ctx, probe, core.Config{Model: model, MaxDuration: SwiftestMaxDuration, Terminate: policy})
}

// algorithm is one row of a sweep's algorithm table. A row with a prober
// floods the link with that baseline; a row without runs the Swiftest engine
// under policy, nil being the §5.1 crossing default.
type algorithm struct {
	name   string
	policy core.TerminationPolicy
	prober baseline.Prober
}

// sweep is one seeded run matrix: every profile × algorithm × fault plan
// cell, in that order, measured runs times. The campaign, the training
// replay and the paired evaluation all run through runSweep, so their
// reports differ by algorithm rows and fault plans only.
type sweep struct {
	profiles []string
	algs     []algorithm
	plans    []NamedFaultPlan
	runs     int
	seed     int64
	workers  int // zero selects 1
	reg      *obs.Registry
}

// sweepCell is one cell of a sweep. Run r measures the link seeds[r] builds
// and is scored against oracle[r], that link's oracleMbps; the cells of a
// profile share both slices. model is the profile's bandwidth model, the
// engine's prior; out holds the runs as reduced.
type sweepCell[T any] struct {
	profile *ranprofile.Profile
	model   *gmm.Model
	alg     algorithm
	plan    NamedFaultPlan
	seeds   []int64
	oracle  []float64
	out     []T
}

// runSweep measures every (cell, run) of s on s.workers goroutines. reduce
// turns a finished run — the algorithm's result, a prober's report as a
// converged Result, and the link's RAN chain — into what the caller keeps,
// inside the worker. Cells come back in sweep order and runs in run order,
// whatever the completion order, so the caller's sums are a pure function of s.
func runSweep[T any](ctx context.Context, s sweep, reduce func(core.Result, *ranprofile.Machine) T) ([]sweepCell[T], error) {
	var cells []sweepCell[T]
	for _, name := range s.profiles {
		profile, err := ranprofile.Get(name)
		if err != nil {
			return nil, err
		}
		model, err := dataset.TechModel(profile.DatasetTech(), 2021)
		if err != nil {
			return nil, fmt.Errorf("exper: %w", err)
		}
		seeds, oracle := make([]int64, s.runs), make([]float64, s.runs)
		for run := range seeds {
			seeds[run] = runSeed(s.seed, name, run)
			oracle[run] = oracleMbps(profile, seeds[run])
		}
		for _, alg := range s.algs {
			for _, fp := range s.plans {
				cells = append(cells, sweepCell[T]{profile: profile, model: model, alg: alg, plan: fp, seeds: seeds, oracle: oracle, out: make([]T, s.runs)})
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
				link, machine := newLink(cell.profile, cell.plan.Plan, cell.seeds[run], s.reg)
				if p := cell.alg.prober; p != nil {
					rep := p.Run(link)
					cell.out[run] = reduce(core.Result{Bandwidth: rep.Result, Duration: rep.Duration, DataMB: rep.DataMB, Samples: rep.Samples, Converged: true}, machine)
				} else if res, err := engineOn(ctx, link, cell.model, cell.alg.policy); err != nil {
					errs[idx] = fmt.Errorf("exper: engine on %s: %w", cell.profile.Name, err)
				} else {
					cell.out[run] = reduce(res, machine)
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
