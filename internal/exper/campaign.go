package exper

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"sync"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/baseline"
	"github.com/mobilebandwidth/swiftest/internal/core"
	"github.com/mobilebandwidth/swiftest/internal/dataset"
	"github.com/mobilebandwidth/swiftest/internal/earlystop"
	"github.com/mobilebandwidth/swiftest/internal/faults"
	"github.com/mobilebandwidth/swiftest/internal/linksim"
	"github.com/mobilebandwidth/swiftest/internal/obs"
	"github.com/mobilebandwidth/swiftest/internal/ranprofile"
	"github.com/mobilebandwidth/swiftest/internal/stats"
)

// CampaignReportSchema names the campaign report layout, carried in the
// report header so downstream tooling can dispatch on it.
const CampaignReportSchema = "swiftest-campaign-report/v1"

// NamedFaultPlan pairs a display name with a fault plan applied link-wide —
// every flow on the access link (Swiftest's and the baselines' alike) sees
// the same RAN-side fault, so algorithms are compared under identical
// adversity. A nil Plan is the fault-free control.
type NamedFaultPlan struct {
	Name string
	Plan *faults.Plan
}

// BuiltinFaultPlans are the standard campaign fault plans: the fault-free
// control, a mid-test burst-loss episode, and a short access blackout.
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

// CampaignAlgorithms are the termination algorithms a campaign can sweep.
var CampaignAlgorithms = []string{"swiftest", "fastbts", "fast", "earlystop"}

// CampaignConfig parameterises a scenario campaign: the cross product of
// profiles × algorithms × fault plans, each cell measured Runs times.
type CampaignConfig struct {
	// Profiles are built-in profile names; empty selects the whole library.
	Profiles []string
	// Algorithms are termination algorithms from CampaignAlgorithms; empty
	// selects swiftest and fastbts.
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
	if len(c.Profiles) == 0 {
		c.Profiles = ranprofile.Names()
	}
	if len(c.Algorithms) == 0 {
		c.Algorithms = []string{"swiftest", "fastbts"}
	}
	for _, alg := range c.Algorithms {
		switch alg {
		case "swiftest", "fastbts", "fast", "earlystop":
		default:
			return c, fmt.Errorf("exper: unknown campaign algorithm %q (known: %v)", alg, CampaignAlgorithms)
		}
	}
	if len(c.FaultPlans) == 0 {
		c.FaultPlans = BuiltinFaultPlans()
	}
	for _, fp := range c.FaultPlans {
		if fp.Plan != nil {
			if err := fp.Plan.Validate(); err != nil {
				return c, fmt.Errorf("exper: fault plan %q: %w", fp.Name, err)
			}
		}
	}
	if c.Runs <= 0 {
		c.Runs = 3
	}
	if c.Workers <= 0 {
		c.Workers = 1
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
	alg     string
	plan    NamedFaultPlan
	// hash is FNV-64a of the profile name alone. With the run index it
	// seeds the run, so run r of every cell of a profile gets one link.
	hash uint64
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

// impairFromPlan renders a fault plan as the link-wide impairment hook: the
// access link is "server 0", and AllServers faults match it too.
func impairFromPlan(plan *faults.Plan) func(at time.Duration) linksim.Impairment {
	if plan == nil {
		return nil
	}
	inj := plan.Injector()
	return func(at time.Duration) linksim.Impairment {
		imp := linksim.Impairment{
			Down:     inj.Blackout(0, at),
			LossProb: inj.LossProb(0, at),
		}
		if capMbps, ok := inj.CapMbps(0, at); ok {
			imp.CapMbps = capMbps
		}
		return imp
	}
}

// runScenario measures one run of one cell: the algorithm under test on a
// profiled, possibly faulted link. runTruth floods the same link fault-free.
func runScenario(cell campaignCell, runSeed int64, reg *obs.Registry) (runOutcome, error) {
	machine := ranprofile.NewMachine(cell.profile, runSeed, ranprofile.MachineOptions{
		Metrics: ranprofile.NewLinkMetrics(reg),
	})
	testCfg := linksim.Config{
		StateHook: machine.Hook(),
		Impair:    impairFromPlan(cell.plan.Plan),
	}
	testLink, err := linksim.New(testCfg, runSeed)
	if err != nil {
		return runOutcome{}, fmt.Errorf("exper: campaign link: %w", err)
	}

	var out runOutcome
	switch cell.alg {
	case "swiftest", "earlystop":
		model, err := dataset.TechModel(cell.profile.DatasetTech(), 2021)
		if err != nil {
			return runOutcome{}, fmt.Errorf("exper: %v", err)
		}
		cfg := core.Config{Model: model, MaxDuration: SwiftestMaxDuration}
		if cell.alg == "earlystop" {
			// The learned policy over the same engine: the crossing rule
			// stays as its fallback, so accuracy can only differ where the
			// model fires first.
			cfg.Terminate = earlystop.NewPolicy(nil)
		}
		probe := core.NewSimProbe(testLink)
		res, err := core.Run(probe, cfg)
		probe.Close()
		if err != nil {
			return runOutcome{}, fmt.Errorf("exper: %s on %s: %w", cell.alg, cell.profile.Name, err)
		}
		out = runOutcome{estimate: res.Bandwidth, duration: res.Duration, dataMB: res.DataMB, converged: res.Converged}
	case "fastbts":
		rep := (&baseline.FastBTS{}).Run(testLink)
		out = runOutcome{estimate: rep.Result, duration: rep.Duration, dataMB: rep.DataMB, converged: true}
	case "fast":
		rep := (&baseline.FAST{}).Run(testLink)
		out = runOutcome{estimate: rep.Result, duration: rep.Duration, dataMB: rep.DataMB, converged: true}
	default:
		return runOutcome{}, fmt.Errorf("exper: unknown campaign algorithm %q", cell.alg)
	}
	out.handovers = machine.Handovers()
	out.stateChanges = machine.StateChanges()
	return out, nil
}

// runTruth is the ground truth of one (profile, run): BTS-APP floods the
// link runScenario builds from the same seed — same state chain, same AR(1)
// noise — for 10 s with no faults, so accuracy isolates what the termination
// algorithm loses, not what the fault destroyed. It depends on neither
// algorithm nor fault plan, so every cell of the profile shares it. The
// machine carries no metrics: registry rows count measured links only.
func runTruth(profile *ranprofile.Profile, runSeed int64) (float64, error) {
	machine := ranprofile.NewMachine(profile, runSeed, ranprofile.MachineOptions{})
	link, err := linksim.New(linksim.Config{StateHook: machine.Hook()}, runSeed)
	if err != nil {
		return 0, fmt.Errorf("exper: truth link: %w", err)
	}
	return (&baseline.BTSApp{}).Run(link).Result, nil
}

// RunCampaign sweeps profiles × algorithms × fault plans under cfg and
// aggregates each cell. The report is deterministic: a pure function of
// the config and seed, independent of Workers and of goroutine scheduling.
func RunCampaign(ctx context.Context, cfg CampaignConfig) (*CampaignReport, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}

	// The cell list is fixed up front in sweep order; each run gets a slot
	// in a preallocated result matrix, so completion order cannot reorder
	// the report.
	var cells []campaignCell
	for _, name := range cfg.Profiles {
		p, err := ranprofile.Get(name)
		if err != nil {
			return nil, err
		}
		h := fnv.New64a()
		h.Write([]byte(name))
		for _, alg := range cfg.Algorithms {
			for _, fp := range cfg.FaultPlans {
				cells = append(cells, campaignCell{profile: p, alg: alg, plan: fp, hash: h.Sum64()})
			}
		}
	}
	perProfile := len(cfg.Algorithms) * len(cfg.FaultPlans)
	runSeed := func(cell campaignCell, run int) int64 {
		return int64(stats.SplitMix64(uint64(cfg.Seed) ^ cell.hash ^ uint64(run)*stats.SplitMix64Gamma))
	}

	// Jobs are numbered truth floods first — one per (profile, run), shared
	// by the profile's cells — then one per (cell, run); errs has a slot for
	// each.
	truths := make([]float64, len(cfg.Profiles)*cfg.Runs)
	outcomes := make([]runOutcome, len(cells)*cfg.Runs)
	errs := make([]error, len(truths)+len(outcomes))
	var (
		wg   sync.WaitGroup
		next = make(chan int)
	)
	workers := cfg.Workers
	if workers > len(errs) {
		workers = len(errs)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range next {
				if idx < len(truths) {
					first := cells[idx/cfg.Runs*perProfile]
					truths[idx], errs[idx] = runTruth(first.profile, runSeed(first, idx%cfg.Runs))
					continue
				}
				o := idx - len(truths)
				cell := cells[o/cfg.Runs]
				outcomes[o], errs[idx] = runScenario(cell, runSeed(cell, o%cfg.Runs), cfg.Registry)
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
		Scenarios:  make([]ScenarioStats, 0, len(cells)),
	}
	for _, fp := range cfg.FaultPlans {
		report.FaultPlans = append(report.FaultPlans, fp.Name)
	}
	for c, cell := range cells {
		s := ScenarioStats{
			Profile:   cell.profile.Name,
			Algorithm: cell.alg,
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
