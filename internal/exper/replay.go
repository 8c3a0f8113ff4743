package exper

import (
	"context"
	"fmt"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/core"
	"github.com/mobilebandwidth/swiftest/internal/earlystop"
	"github.com/mobilebandwidth/swiftest/internal/estimate"
	"github.com/mobilebandwidth/swiftest/internal/stats"
)

// ReplayConfig parameterises the labeling replay behind the earlystop model:
// the cross product of profiles × fault plans, each run Runs times on seeded
// links.
type ReplayConfig struct {
	// Profiles are built-in RAN profile names; empty selects the whole
	// library.
	Profiles []string
	// FaultPlans are the fault plans to sweep; empty selects
	// BuiltinFaultPlans, so training sees the adversity campaigns sweep.
	FaultPlans []NamedFaultPlan
	// Runs is the number of seeded runs per (profile, fault plan) cell.
	// Zero selects 3.
	Runs int
	// Seed roots every per-run seed; rows are a pure function of
	// (config, seed).
	Seed int64
	// MinSamples is the shortest prefix labeled (the model's K). Zero
	// selects 20.
	MinSamples int
	// PrefixStep is the stride between labeled prefixes of one run. Zero
	// selects 5.
	PrefixStep int
	// Tolerance is the accuracy slack a positive label allows versus the
	// crossing baseline: a prefix is positive when its deviation from the
	// oracle (the mean capacity the link offered over 10 s) is at most the
	// crossing-policy result's deviation plus Tolerance. Zero selects 0.10.
	Tolerance float64
}

func (c ReplayConfig) withDefaults() (ReplayConfig, error) {
	var err error
	if c.Profiles, c.FaultPlans, c.Runs, err = sweepDefaults(c.Profiles, c.FaultPlans, c.Runs); err != nil {
		return c, err
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 20
	}
	if c.MinSamples < estimate.Window {
		return c, fmt.Errorf("exper: MinSamples %d below the %d-sample feature window", c.MinSamples, estimate.Window)
	}
	if c.PrefixStep <= 0 {
		c.PrefixStep = 5
	}
	if c.Tolerance <= 0 {
		c.Tolerance = 0.10
	}
	return c, nil
}

// neverStop runs the engine to its deadline so the replay captures the full
// sample stream — every prefix of which becomes a training example.
type neverStop struct{}

func (neverStop) Name() string { return "never" }
func (neverStop) Decide([]float64, []estimate.TrajectoryPoint, time.Duration) core.Decision {
	return core.Decision{}
}

// Replay sweeps profiles × fault plans under cfg, runs the probing engine
// to its deadline on each seeded link, and labels every prefix against the
// oracle: the mean capacity the (profile, seed) link offered over 10 s.
// A prefix is positive when stopping there — reporting its trailing-window
// mean — deviates from the oracle by at most the §5.1 crossing policy's own
// deviation plus Tolerance: "less is enough" exactly when cutting the test
// short costs no material accuracy versus the default rule. Rows come back
// in sweep order — a pure function of (cfg, Seed) — so earlystop.Train over
// them is deterministic too.
func Replay(ctx context.Context, cfg ReplayConfig) ([]earlystop.Row, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	cells, err := runSweep(ctx, sweep{
		profiles: cfg.Profiles, algs: []algorithm{{name: "never", policy: neverStop{}}}, plans: cfg.FaultPlans,
		runs: cfg.Runs, seed: cfg.Seed,
	}, func(res core.Result, _ chainActivity) core.Result { return res })
	if err != nil {
		return nil, err
	}
	var rows []earlystop.Row
	for _, cell := range cells {
		for run, res := range cell.out {
			oracle := cell.oracle[run]
			// The crossing baseline on the same stream anchors the labels.
			crossing, _ := crossingReplay(res.Samples)
			crossingDev := Deviation(crossing, oracle)
			for n := cfg.MinSamples; n <= len(res.Samples); n += cfg.PrefixStep {
				prefix := res.Samples[:n]
				row := earlystop.Row{
					Label:     Deviation(stats.Mean(estimate.Tail(prefix)), oracle) <= crossingDev+cfg.Tolerance,
					Profile:   cell.name,
					FaultPlan: cell.plan.Name,
					Run:       run,
					Prefix:    n,
				}
				earlystop.Featurize(prefix, res.Trajectory[:n], &row.Features)
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// TrainFromReplay runs the labeling replay and fits a model in one step,
// keeping MinSamples and Tolerance consistent between the rows and the
// artifact: Train defaults a non-positive K or tolerance exactly as the
// replay does. It returns the fitted model and the rows it was trained on. A
// threshold Train would refuse is refused before the replay runs.
func TrainFromReplay(ctx context.Context, rcfg ReplayConfig, topts earlystop.TrainOptions) (*earlystop.Model, []earlystop.Row, error) {
	if t := topts.Threshold; t != 0 && !(t > 0 && t < 1) {
		return nil, nil, fmt.Errorf("exper: train threshold %g outside (0,1)", t)
	}
	rows, err := Replay(ctx, rcfg)
	if err != nil {
		return nil, nil, err
	}
	topts.MinSamples, topts.Tolerance = rcfg.MinSamples, rcfg.Tolerance
	m, err := earlystop.Train(rows, topts)
	if err != nil {
		return nil, nil, err
	}
	return m, rows, nil
}
