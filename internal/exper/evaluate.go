package exper

import (
	"context"
	"fmt"

	"github.com/mobilebandwidth/swiftest/internal/core"
	"github.com/mobilebandwidth/swiftest/internal/earlystop"
)

// EvalReportSchema names the paired-evaluation report layout.
const EvalReportSchema = "swiftest-earlystop-eval/v1"

// EvalConfig parameterises a paired policy evaluation: every point runs on
// the identical seeded links — per-run seeds hash only (profile, run), never
// the policy — so differences between points measure the policies, not link
// noise.
type EvalConfig struct {
	// Profiles are built-in RAN profile names; empty selects the whole
	// library.
	Profiles []string
	// FaultPlans are the fault plans swept; empty selects
	// BuiltinFaultPlans.
	FaultPlans []NamedFaultPlan
	// Runs is the number of seeded runs per (profile, fault plan) cell.
	// Zero selects 3.
	Runs int
	// Seed roots every per-run seed; the report is a pure function of
	// (config, seed).
	Seed int64
	// Model is the earlystop model under evaluation; nil selects the
	// embedded default.
	Model *earlystop.Model
	// Thresholds are extra stop-probability thresholds to trace the
	// accuracy-vs-duration-vs-data front with; the model's own threshold
	// is always evaluated. Values outside (0,1) are rejected.
	Thresholds []float64
}

// EvalPoint is one policy's aggregate over the whole paired matrix.
type EvalPoint struct {
	// Policy is "crossing" or "earlystop".
	Policy string `json:"policy"`
	// Threshold is the earlystop stop threshold (0 for crossing).
	Threshold float64 `json:"threshold,omitempty"`
	// MeanAccuracy is mean 1 − deviation versus the oracle: the mean
	// capacity the run's (profile, seed) link offered over 10 s.
	MeanAccuracy float64 `json:"mean_accuracy"`
	// MeanDurationMS and MeanDataMB are the mean test cost.
	MeanDurationMS float64 `json:"mean_duration_ms"`
	MeanDataMB     float64 `json:"mean_data_mb"`
	// EarlyStops counts runs the learned model fired on (0 for crossing).
	EarlyStops int `json:"early_stops"`
	// Runs is the number of paired runs aggregated.
	Runs int `json:"runs"`
}

// EvalReport is the full deterministic paired-evaluation outcome. Points
// come in config order: crossing first, then one earlystop point per
// evaluated threshold (the model's own threshold first).
type EvalReport struct {
	Schema     string      `json:"schema"`
	Seed       int64       `json:"seed"`
	Runs       int         `json:"runs_per_cell"`
	Profiles   []string    `json:"profiles"`
	FaultPlans []string    `json:"fault_plans"`
	Points     []EvalPoint `json:"points"`
}

// Evaluate measures the crossing policy and the earlystop policy (at one or
// more thresholds) over the full profiles × fault plans matrix, every
// policy on the identical seeded links, against the capacity those links
// offered. The report is a pure function of (cfg, Seed).
func Evaluate(ctx context.Context, cfg EvalConfig) (*EvalReport, error) {
	var err error
	if cfg.Profiles, cfg.FaultPlans, cfg.Runs, err = sweepDefaults(cfg.Profiles, cfg.FaultPlans, cfg.Runs); err != nil {
		return nil, err
	}
	model := cfg.Model
	if model == nil {
		model = earlystop.Default()
	}
	thresholds := append([]float64{model.Threshold}, cfg.Thresholds...)

	// Row 0 is crossing (the engine's nil default); the rest are earlystop
	// variants of the same model at each threshold, points[i] aggregating
	// algs[i].
	algs := []algorithm{{name: "crossing"}}
	points := []EvalPoint{{Policy: "crossing"}}
	for _, t := range thresholds {
		if !(t > 0 && t < 1) {
			return nil, fmt.Errorf("exper: eval threshold %g outside (0,1)", t)
		}
		variant := *model
		variant.Threshold = t
		algs = append(algs, algorithm{name: "earlystop", policy: earlystop.NewPolicy(&variant)})
		points = append(points, EvalPoint{Policy: "earlystop", Threshold: t})
	}

	cells, err := runSweep(ctx, sweep{
		profiles: cfg.Profiles, algs: algs, plans: cfg.FaultPlans,
		runs: cfg.Runs, seed: cfg.Seed,
	}, func(res core.Result, chain chainActivity) runOutcome {
		o := outcomeOf(res, chain)
		// A converged run the crossing rule would not have stopped is a
		// model-fired early stop.
		if res.Converged {
			_, crossed := crossingReplay(res.Samples)
			o.earlyStop = !crossed
		}
		return o
	})
	if err != nil {
		return nil, err
	}
	for c, cell := range cells {
		pt := &points[c/len(cfg.FaultPlans)%len(algs)] // cell c's row
		for r, o := range cell.out {
			pt.MeanAccuracy += 1 - Deviation(o.estimate, cell.oracle[r])
			pt.MeanDurationMS += float64(o.duration.Milliseconds())
			pt.MeanDataMB += o.dataMB
			if cell.alg.policy != nil && o.earlyStop {
				pt.EarlyStops++
			}
			pt.Runs++
		}
	}

	for pi := range points {
		pt := &points[pi]
		n := float64(pt.Runs)
		pt.MeanAccuracy /= n
		pt.MeanDurationMS /= n
		pt.MeanDataMB /= n
	}
	return &EvalReport{
		Schema:     EvalReportSchema,
		Seed:       cfg.Seed,
		Runs:       cfg.Runs,
		Profiles:   cfg.Profiles,
		FaultPlans: planNames(cfg.FaultPlans),
		Points:     points,
	}, nil
}
