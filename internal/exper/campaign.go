package exper

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/baseline"
	"github.com/mobilebandwidth/swiftest/internal/core"
	"github.com/mobilebandwidth/swiftest/internal/earlystop"
	"github.com/mobilebandwidth/swiftest/internal/obs"
	"github.com/mobilebandwidth/swiftest/internal/ranprofile"
)

// CampaignReportSchema names the campaign report layout, carried in the
// report header so downstream tooling can dispatch on it.
const CampaignReportSchema = "swiftest-campaign-report/v2"

// algorithms are the termination algorithms a campaign can sweep. The
// earlystop row is the learned policy over the Swiftest engine: the crossing
// rule stays as its fallback, so accuracy can only differ where the model
// fires first. The btsapp row is the paper's 10 s flood, scored against the
// link like every other row.
var algorithms = []algorithm{
	{name: "swiftest"},
	{name: "fastbts", prober: &baseline.FastBTS{}},
	{name: "fast", prober: &baseline.FAST{}},
	{name: "earlystop", policy: earlystop.NewPolicy(nil)},
	{name: "btsapp", prober: &baseline.BTSApp{}},
}

func findAlgorithm(name string) (algorithm, error) {
	known := make([]string, len(algorithms))
	for i, a := range algorithms {
		if a.name == name {
			return a, nil
		}
		known[i] = a.name
	}
	return algorithm{}, fmt.Errorf("exper: unknown campaign algorithm %q (known: %v)", name, known)
}

// CampaignConfig parameterises a scenario campaign: the cross product of
// profiles × algorithms × fault plans, each cell measured Runs times.
type CampaignConfig struct {
	// Profiles are built-in profile names; empty selects the whole library.
	Profiles []string
	// Algorithms are termination algorithms — swiftest, fastbts, fast,
	// earlystop, btsapp; empty selects swiftest and fastbts.
	Algorithms []string
	// FaultPlans are the fault plans to sweep; empty selects
	// BuiltinFaultPlans.
	FaultPlans []NamedFaultPlan
	// Runs is the number of seeded runs per cell. Zero selects 3.
	Runs int
	// Seed roots every per-run seed; the report is a pure function of
	// (config, seed).
	Seed int64
	// Workers bounds concurrent runs. Zero selects 1. The report is
	// byte-identical at every worker count: run seeds are pure functions of
	// (Seed, profile, run index) and results aggregate in cell order
	// regardless of completion order.
	Workers int
	// Registry, when non-nil, receives per-state dwell and handover
	// instruments from every profiled link in the campaign.
	Registry *obs.Registry
}

func (c CampaignConfig) withDefaults() (CampaignConfig, error) {
	var err error
	if c.Profiles, c.FaultPlans, c.Runs, err = sweepDefaults(c.Profiles, c.FaultPlans, c.Runs); err != nil {
		return c, err
	}
	if len(c.Algorithms) == 0 {
		c.Algorithms = []string{"swiftest", "fastbts"}
	}
	return c, nil
}

// ScenarioStats is one aggregated cell of the campaign report: one
// (profile, algorithm, fault plan) combination across all its runs.
type ScenarioStats struct {
	Profile   string `json:"profile"`
	Algorithm string `json:"algorithm"`
	FaultPlan string `json:"fault_plan"`
	Runs      int    `json:"runs"`
	// MeanAccuracy is mean 1 − deviation versus the oracle: the mean
	// capacity the run's link offered over 10 s. Run r of every cell of a
	// profile is measured on the same seeded link and scored against the
	// same oracle, so rows of one profile differ by algorithm and fault plan
	// only.
	MeanAccuracy float64 `json:"mean_accuracy"`
	// MeanDurationMS is the mean test duration in virtual milliseconds.
	MeanDurationMS float64 `json:"mean_duration_ms"`
	// MeanDataMB is the mean data consumed per test.
	MeanDataMB float64 `json:"mean_data_mb"`
	// MeanEstimateMbps / MeanOracleMbps are the mean reported bandwidth and
	// the mean oracle.
	MeanEstimateMbps float64 `json:"mean_estimate_mbps"`
	MeanOracleMbps   float64 `json:"mean_oracle_mbps"`
	// Converged counts runs the algorithm terminated by its own criterion
	// (always Runs for the flooding baselines).
	Converged int `json:"converged"`
	// Handovers and StateChanges total the RAN chain activity the test
	// links went through during measurement.
	Handovers    int `json:"handovers"`
	StateChanges int `json:"state_changes"`
}

// CampaignReport is the full deterministic campaign outcome.
type CampaignReport struct {
	Schema     string          `json:"schema"`
	Seed       int64           `json:"seed"`
	Runs       int             `json:"runs_per_cell"`
	Profiles   []string        `json:"profiles"`
	Algorithms []string        `json:"algorithms"`
	FaultPlans []string        `json:"fault_plans"`
	Scenarios  []ScenarioStats `json:"scenarios"`
}

// WriteJSON emits the report as indented JSON. The bytes are a pure
// function of the report (no maps, no timestamps), so reruns and different
// worker counts produce identical artifacts.
func (r *CampaignReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteTable renders the report as a fixed-width text table, cells in
// report order.
func (r *CampaignReport) WriteTable(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%-26s %-9s %-11s %8s %9s %8s %9s %10s %5s %5s\n",
		"PROFILE", "ALG", "FAULTS", "ACC", "DUR(ms)", "DATA(MB)", "EST(Mb)", "ORACLE(Mb)", "CONV", "HO"); err != nil {
		return err
	}
	for _, s := range r.Scenarios {
		if _, err := fmt.Fprintf(w, "%-26s %-9s %-11s %7.1f%% %9.0f %8.2f %9.1f %10.1f %2d/%-2d %5d\n",
			s.Profile, s.Algorithm, s.FaultPlan, 100*s.MeanAccuracy, s.MeanDurationMS,
			s.MeanDataMB, s.MeanEstimateMbps, s.MeanOracleMbps, s.Converged, s.Runs, s.Handovers); err != nil {
			return err
		}
	}
	return nil
}

// runOutcome is what the campaign and the paired evaluation keep of one
// measured run: scalars only, no sample slices.
type runOutcome struct {
	estimate     float64
	duration     time.Duration
	dataMB       float64
	converged    bool
	earlyStop    bool // the evaluation's: the model stopped before the crossing rule would have
	handovers    int
	stateChanges int
}

// outcomeOf reduces a finished run to its runOutcome.
func outcomeOf(res core.Result, machine *ranprofile.Machine) runOutcome {
	return runOutcome{
		estimate: res.Bandwidth, duration: res.Duration, dataMB: res.DataMB, converged: res.Converged,
		handovers: machine.Handovers(), stateChanges: machine.StateChanges(),
	}
}

// RunCampaign sweeps profiles × algorithms × fault plans under cfg and
// aggregates each cell. The report is deterministic: a pure function of
// the config and seed, independent of Workers and of goroutine scheduling.
func RunCampaign(ctx context.Context, cfg CampaignConfig) (*CampaignReport, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}

	algs := make([]algorithm, len(cfg.Algorithms))
	for i, name := range cfg.Algorithms {
		if algs[i], err = findAlgorithm(name); err != nil {
			return nil, err
		}
	}

	cells, err := runSweep(ctx, sweep{
		profiles: cfg.Profiles, algs: algs, plans: cfg.FaultPlans,
		runs: cfg.Runs, seed: cfg.Seed, workers: cfg.Workers, reg: cfg.Registry,
	}, outcomeOf)
	if err != nil {
		return nil, err
	}

	// Aggregate sequentially in cell order: float summation order is fixed,
	// so the report bytes cannot depend on scheduling.
	report := &CampaignReport{
		Schema:     CampaignReportSchema,
		Seed:       cfg.Seed,
		Runs:       cfg.Runs,
		Profiles:   cfg.Profiles,
		Algorithms: cfg.Algorithms,
		FaultPlans: planNames(cfg.FaultPlans),
		Scenarios:  make([]ScenarioStats, 0, len(cells)),
	}
	for _, cell := range cells {
		s := ScenarioStats{
			Profile:   cell.name,
			Algorithm: cell.alg.name,
			FaultPlan: cell.plan.Name,
			Runs:      cfg.Runs,
		}
		for r, o := range cell.out {
			oracle := cell.oracle[r]
			s.MeanAccuracy += 1 - Deviation(o.estimate, oracle)
			s.MeanDurationMS += float64(o.duration) / float64(time.Millisecond)
			s.MeanDataMB += o.dataMB
			s.MeanEstimateMbps += o.estimate
			s.MeanOracleMbps += oracle
			if o.converged {
				s.Converged++
			}
			s.Handovers += o.handovers
			s.StateChanges += o.stateChanges
		}
		n := float64(cfg.Runs)
		s.MeanAccuracy /= n
		s.MeanDurationMS /= n
		s.MeanDataMB /= n
		s.MeanEstimateMbps /= n
		s.MeanOracleMbps /= n
		report.Scenarios = append(report.Scenarios, s)
	}
	return report, nil
}
