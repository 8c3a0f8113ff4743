package exper

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"

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

// runSeed derives the seed of run number run from the sweep seed and a key
// naming what the run shares a link with: runs with equal (seed, key, run)
// measure the identical link. The campaign keys by profile, so every cell of
// a profile is paired; the replay and the evaluation key by "profile|plan".
func runSeed(seed int64, key string, run int) int64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return int64(stats.SplitMix64(uint64(seed) ^ h.Sum64() ^ uint64(run)*stats.SplitMix64Gamma))
}

// newLink builds the link of one run: the profile's state machine and the
// link's noise both start from seed, and plan's faults (nil for none) apply
// link-wide: the access link is the plan's server 0, and AllServers faults
// match it too. reg, when non-nil, receives the machine's dwell and handover
// instruments.
func newLink(profile *ranprofile.Profile, plan *faults.Plan, seed int64, reg *obs.Registry) (*linksim.Link, *ranprofile.Machine, error) {
	machine := ranprofile.NewMachine(profile, seed, ranprofile.MachineOptions{
		Metrics: ranprofile.NewLinkMetrics(reg),
	})
	link, err := linksim.New(linksim.Config{
		StateHook: machine.Hook(),
		Impair:    plan.Injector().Impair(0, 0),
	}, seed)
	if err != nil {
		return nil, nil, fmt.Errorf("exper: link for %s: %w", profile.Name, err)
	}
	return link, machine, nil
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

// runEngine measures one run: the Swiftest engine, stopping by policy, on the
// link newLink builds from the same arguments. The campaign, the training
// replay and the paired evaluation all measure through it and score against
// runTruth, so their reports differ by policy, fault plan and seed key only.
func runEngine(ctx context.Context, profile *ranprofile.Profile, plan *faults.Plan, seed int64, policy core.TerminationPolicy, reg *obs.Registry) (core.Result, *ranprofile.Machine, error) {
	model, err := dataset.TechModel(profile.DatasetTech(), 2021)
	if err != nil {
		return core.Result{}, nil, fmt.Errorf("exper: %w", err)
	}
	link, machine, err := newLink(profile, plan, seed, reg)
	if err != nil {
		return core.Result{}, nil, err
	}
	res, err := engineOn(ctx, link, model, policy)
	if err != nil {
		return core.Result{}, nil, fmt.Errorf("exper: engine on %s: %w", profile.Name, err)
	}
	return res, machine, nil
}

// runTruth is the ground truth of one run: BTS-APP floods the link newLink
// builds from the same seed — same state chain, same AR(1) noise — for 10 s
// with no faults, so accuracy isolates what the termination algorithm loses,
// not what the fault destroyed. It depends on neither algorithm nor fault
// plan. The machine carries no metrics: registry rows count measured links
// only.
func runTruth(profile *ranprofile.Profile, seed int64) (float64, error) {
	link, _, err := newLink(profile, nil, seed, nil)
	if err != nil {
		return 0, err
	}
	return (&baseline.BTSApp{}).Run(link).Result, nil
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
