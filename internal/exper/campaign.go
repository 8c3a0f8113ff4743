package exper

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/baseline"
	"github.com/mobilebandwidth/swiftest/internal/core"
	"github.com/mobilebandwidth/swiftest/internal/earlystop"
	"github.com/mobilebandwidth/swiftest/internal/obs"
	"github.com/mobilebandwidth/swiftest/internal/ranprofile"
)

// CampaignReportSchema names the campaign report layout, carried in the
// report header so downstream tooling can dispatch on it.
const CampaignReportSchema = "swiftest-campaign-report/v1"

// algorithm is one row of the campaign's algorithm table. A row with a
// prober floods the link with that baseline; a row without runs the Swiftest
// engine under policy, nil being the §5.1 crossing default. The earlystop row
// is the learned policy over the same engine: the crossing rule stays as its
// fallback, so accuracy can only differ where the model fires first.
type algorithm struct {
	name   string
	policy core.TerminationPolicy
	prober baseline.Prober
}

// algorithms are the termination algorithms a campaign can sweep.
var algorithms = []algorithm{
	{name: "swiftest"},
	{name: "fastbts", prober: &baseline.FastBTS{}},
	{name: "fast", prober: &baseline.FAST{}},
	{name: "earlystop", policy: earlystop.NewPolicy(nil)},
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
	// earlystop; empty selects swiftest and fastbts.
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
	// MeanAccuracy is mean 1 − deviation versus the fault-free BTS-APP
	// ground truth on the identical link. Run r of every cell of a profile
	// is measured on the same seeded link and scored against the same truth
	// flood, so rows of one profile differ by algorithm and fault plan only.
	MeanAccuracy float64 `json:"mean_accuracy"`
	// MeanDurationMS is the mean test duration in virtual milliseconds.
	MeanDurationMS float64 `json:"mean_duration_ms"`
	// MeanDataMB is the mean data consumed per test.
	MeanDataMB float64 `json:"mean_data_mb"`
	// MeanEstimateMbps / MeanTruthMbps are the mean reported and
	// ground-truth bandwidths.
	MeanEstimateMbps float64 `json:"mean_estimate_mbps"`
	MeanTruthMbps    float64 `json:"mean_truth_mbps"`
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
	if _, err := fmt.Fprintf(w, "%-26s %-9s %-11s %8s %9s %8s %9s %9s %5s %5s\n",
		"PROFILE", "ALG", "FAULTS", "ACC", "DUR(ms)", "DATA(MB)", "EST(Mb)", "TRUE(Mb)", "CONV", "HO"); err != nil {
		return err
	}
	for _, s := range r.Scenarios {
		if _, err := fmt.Fprintf(w, "%-26s %-9s %-11s %7.1f%% %9.0f %8.2f %9.1f %9.1f %2d/%-2d %5d\n",
			s.Profile, s.Algorithm, s.FaultPlan, 100*s.MeanAccuracy, s.MeanDurationMS,
			s.MeanDataMB, s.MeanEstimateMbps, s.MeanTruthMbps, s.Converged, s.Runs, s.Handovers); err != nil {
			return err
		}
	}
	return nil
}

// campaignCell is one (profile, algorithm, fault plan) coordinate.
type campaignCell struct {
	profile *ranprofile.Profile
	alg     algorithm
	plan    NamedFaultPlan
}

// runOutcome is one measured run of a cell.
type runOutcome struct {
	estimate     float64
	duration     time.Duration
	dataMB       float64
	converged    bool
	handovers    int
	stateChanges int
}

// runScenario measures one run of one cell: the algorithm under test on a
// profiled, possibly faulted link. runTruth floods the same link fault-free.
func runScenario(ctx context.Context, cell campaignCell, seed int64, reg *obs.Registry) (runOutcome, error) {
	if cell.alg.prober == nil {
		res, machine, err := runEngine(ctx, cell.profile, cell.plan.Plan, seed, cell.alg.policy, reg)
		if err != nil {
			return runOutcome{}, err
		}
		return runOutcome{
			estimate: res.Bandwidth, duration: res.Duration, dataMB: res.DataMB, converged: res.Converged,
			handovers: machine.Handovers(), stateChanges: machine.StateChanges(),
		}, nil
	}
	link, machine, err := newLink(cell.profile, cell.plan.Plan, seed, reg)
	if err != nil {
		return runOutcome{}, err
	}
	rep := cell.alg.prober.Run(link)
	return runOutcome{
		estimate: rep.Result, duration: rep.Duration, dataMB: rep.DataMB, converged: true,
		handovers: machine.Handovers(), stateChanges: machine.StateChanges(),
	}, nil
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

	// The cell list is fixed up front in sweep order; each run gets a slot
	// in a preallocated result matrix, so completion order cannot reorder
	// the report. seeds has one entry per (profile, run), keyed by the
	// profile alone: run r of every cell of a profile gets one link — the
	// fault plan is left out too, since truth is fault-free by construction.
	var cells []campaignCell
	seeds := make([]int64, 0, len(cfg.Profiles)*cfg.Runs)
	for _, name := range cfg.Profiles {
		p, err := ranprofile.Get(name)
		if err != nil {
			return nil, err
		}
		for run := 0; run < cfg.Runs; run++ {
			seeds = append(seeds, runSeed(cfg.Seed, name, run))
		}
		for _, alg := range algs {
			for _, fp := range cfg.FaultPlans {
				cells = append(cells, campaignCell{profile: p, alg: alg, plan: fp})
			}
		}
	}
	perProfile := len(algs) * len(cfg.FaultPlans)

	// Jobs are numbered truth floods first — one per (profile, run), shared
	// by the profile's cells and indexed like seeds — then one per (cell,
	// run); errs has a slot for each.
	truths := make([]float64, len(seeds))
	outcomes := make([]runOutcome, len(cells)*cfg.Runs)
	errs := make([]error, len(truths)+len(outcomes))
	var (
		wg   sync.WaitGroup
		next = make(chan int)
	)
	workers := min(max(cfg.Workers, 1), len(errs)) // zero selects 1
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range next {
				if idx < len(truths) {
					first := cells[idx/cfg.Runs*perProfile]
					truths[idx], errs[idx] = runTruth(first.profile, seeds[idx])
					continue
				}
				o := idx - len(truths)
				c := o / cfg.Runs
				outcomes[o], errs[idx] = runScenario(ctx, cells[c], seeds[c/perProfile*cfg.Runs+o%cfg.Runs], cfg.Registry)
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
		return nil, fmt.Errorf("exper: campaign aborted: %w", err)
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
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
	for c, cell := range cells {
		s := ScenarioStats{
			Profile:   cell.profile.Name,
			Algorithm: cell.alg.name,
			FaultPlan: cell.plan.Name,
			Runs:      cfg.Runs,
		}
		for r := 0; r < cfg.Runs; r++ {
			o := outcomes[c*cfg.Runs+r]
			truth := truths[c/perProfile*cfg.Runs+r]
			s.MeanAccuracy += 1 - Deviation(o.estimate, truth)
			s.MeanDurationMS += float64(o.duration) / float64(time.Millisecond)
			s.MeanDataMB += o.dataMB
			s.MeanEstimateMbps += o.estimate
			s.MeanTruthMbps += truth
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
		s.MeanTruthMbps /= n
		report.Scenarios = append(report.Scenarios, s)
	}
	return report, nil
}
