package core

import (
	"time"

	"github.com/mobilebandwidth/swiftest/internal/estimate"
	"github.com/mobilebandwidth/swiftest/internal/stats"
)

// Decision is a TerminationPolicy's verdict after one 50 ms sample.
type Decision struct {
	// Stop ends the test now; Estimate is then the reported bandwidth.
	Stop     bool
	Estimate float64
	// Early marks a stop issued before the crossing rule would have fired —
	// a learned early exit. The engine counts these separately
	// (swiftest_engine_earlystops_total) and emits an early_stop trace event.
	Early bool
	// Checked, Check and Threshold describe the policy's convergence probe
	// for the trace: when Checked, the engine records a converge_check event
	// with value Check and aux Threshold.
	Checked   bool
	Check     float64
	Threshold float64
	// Note annotates the early_stop trace event (e.g. the model score).
	Note string
}

// TerminationPolicy decides, after every sample, whether a bandwidth test
// has measured enough. Decide sees the full sample and trajectory prefix
// collected so far and must be a pure function of it (no internal state), so
// one policy value can be shared across concurrent tests and reruns are
// byte-identical.
//
// Three implementations sit behind this seam: CrossingPolicy (the paper's
// §5.1 stability window), FastBTSPolicy (crucial-interval lagged agreement),
// and earlystop.Policy (the learned TURBOTEST-style model).
type TerminationPolicy interface {
	// Name labels the policy in traces and reports.
	Name() string
	// Decide judges the test after the latest sample. samples and traj are
	// the complete prefixes in arrival order; elapsed is the probe's clock.
	Decide(samples []float64, traj []estimate.TrajectoryPoint, elapsed time.Duration) Decision
}

// CrossingPolicy is the paper's §5.1 stopping rule as a TerminationPolicy:
// stop when the last estimate.Window samples agree within
// estimate.StableThreshold (max/min spread), reporting their mean.
type CrossingPolicy struct{}

// Name implements TerminationPolicy.
func (CrossingPolicy) Name() string { return "crossing" }

// Decide implements TerminationPolicy.
func (CrossingPolicy) Decide(samples []float64, _ []estimate.TrajectoryPoint, _ time.Duration) Decision {
	if len(samples) < estimate.Window {
		return Decision{}
	}
	tail := samples[len(samples)-estimate.Window:]
	d := Decision{Checked: true, Check: stats.Spread(tail), Threshold: estimate.StableThreshold}
	if estimate.Stable(tail, estimate.StableThreshold) {
		d.Stop = true
		d.Estimate = stats.Mean(tail)
	}
	return d
}

// FastBTSPolicy is FastBTS's crucial-interval stopping rule (NSDI '21),
// estimate.FastBTSStop, behind the TerminationPolicy seam — the rule the
// baseline prober (internal/baseline.FastBTS) runs too. From
// estimate.FastBTSMinSamples on, each decision is checked and its Check is
// the agreement streak; the test stops, reporting the latest
// crucial-interval estimate, once the streak reaches
// estimate.FastBTSAgreeRounds.
type FastBTSPolicy struct{}

// Name implements TerminationPolicy.
func (FastBTSPolicy) Name() string { return "fastbts" }

// Decide implements TerminationPolicy as a pure function of the prefix: it
// replays the prefix through a fresh rule, so one call costs one
// crucial-interval Add and Estimate per sample. Inside the engine RunContext
// takes a per-test instance through forTest, which feeds the rule each
// sample once.
func (FastBTSPolicy) Decide(samples []float64, _ []estimate.TrajectoryPoint, _ time.Duration) Decision {
	if len(samples) < estimate.FastBTSMinSamples {
		return Decision{}
	}
	var r fastBTSRun
	return r.Decide(samples, nil, 0)
}

// forTest implements perTestPolicy.
func (FastBTSPolicy) forTest() TerminationPolicy { return &fastBTSRun{} }

// fastBTSRun is a FastBTSPolicy bound to one test. It relies on what
// RunContext guarantees — every call sees the previous call's samples plus
// more — and is not safe for concurrent use.
type fastBTSRun struct {
	rule estimate.FastBTSStop
	fed  int // samples the rule has seen
}

func (r *fastBTSRun) Name() string { return FastBTSPolicy{}.Name() }

func (r *fastBTSRun) Decide(samples []float64, _ []estimate.TrajectoryPoint, _ time.Duration) Decision {
	var est float64
	var streak int
	judged := false
	for _, x := range samples[r.fed:] {
		est, streak, judged = r.rule.Add(x)
	}
	r.fed = len(samples)
	if !judged {
		return Decision{}
	}
	d := Decision{Checked: true, Check: float64(streak), Threshold: estimate.FastBTSAgreeRounds}
	if streak >= estimate.FastBTSAgreeRounds {
		d.Stop = true
		d.Estimate = est
	}
	return d
}

// perTestPolicy is the engine's one private hook behind the seam: a policy
// whose pure Decide repeats work across the calls of one test may hand
// RunContext an instance that lives for that test alone and carries the
// work forward. The instance must decide exactly as the pure policy does.
type perTestPolicy interface {
	forTest() TerminationPolicy
}
