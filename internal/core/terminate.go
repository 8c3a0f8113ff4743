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
// stop when the last Window samples agree within Threshold (max/min spread),
// reporting their mean. The zero value selects the published parameters
// (10 samples, 3 %).
type CrossingPolicy struct {
	// Window is the number of trailing samples that must agree; zero
	// selects estimate.Window (10).
	Window int
	// Threshold is the max/min difference ratio regarded as convergent;
	// zero selects estimate.StableThreshold (0.03).
	Threshold float64
}

// Name implements TerminationPolicy.
func (CrossingPolicy) Name() string { return "crossing" }

func (c CrossingPolicy) withDefaults() CrossingPolicy {
	if c.Window <= 0 {
		c.Window = estimate.Window
	}
	if c.Threshold <= 0 {
		c.Threshold = estimate.StableThreshold
	}
	return c
}

// Decide implements TerminationPolicy.
func (c CrossingPolicy) Decide(samples []float64, _ []estimate.TrajectoryPoint, _ time.Duration) Decision {
	c = c.withDefaults()
	if len(samples) < c.Window {
		return Decision{}
	}
	tail := samples[len(samples)-c.Window:]
	d := Decision{Checked: true, Check: stats.Spread(tail), Threshold: c.Threshold}
	if estimate.Stable(tail, c.Threshold) {
		d.Stop = true
		d.Estimate = stats.Mean(tail)
	}
	return d
}

// FastBTSPolicy is FastBTS's crucial-interval stopping rule (NSDI '21)
// behind the TerminationPolicy seam: the crucial-interval estimate must
// agree with its value AgreeLag samples earlier within AgreeThreshold for
// AgreeRounds consecutive samples. The zero value selects the parameters of
// the baseline prober (internal/baseline.FastBTS).
type FastBTSPolicy struct {
	// MinSamples is the floor before any stop is considered; zero selects 30.
	MinSamples int
	// Warmup is the number of leading ramp samples excluded from the
	// crucial-interval estimate; zero selects 10.
	Warmup int
	// AgreeThreshold is the max relative difference between the lagged
	// estimates that counts as agreement; zero selects 0.05.
	AgreeThreshold float64
	// AgreeLag is how many samples back the comparison estimate sits; zero
	// selects 20.
	AgreeLag int
	// AgreeRounds is the consecutive-agreement count that stops the test;
	// zero selects 5.
	AgreeRounds int
}

// Name implements TerminationPolicy.
func (FastBTSPolicy) Name() string { return "fastbts" }

func (f FastBTSPolicy) withDefaults() FastBTSPolicy {
	if f.MinSamples <= 0 {
		f.MinSamples = 30
	}
	if f.Warmup <= 0 {
		f.Warmup = 10
	}
	if f.AgreeThreshold <= 0 {
		f.AgreeThreshold = 0.05
	}
	if f.AgreeLag <= 0 {
		f.AgreeLag = 20
	}
	if f.AgreeRounds <= 0 {
		f.AgreeRounds = 5
	}
	return f
}

// Decide implements TerminationPolicy as a pure function of the prefix: the
// agreement streak is counted backwards from the latest sample until the
// first disagreement, through a memo that lives for this call, so one call
// costs at most 2·(streak+1) one-shot crucial-interval estimates (each n²/2
// subtractions and O(n) divisions in the prefix length) — two on a link
// that is not agreeing yet, a dozen on the sample that stops a test — and
// fewer once the streak outruns AgreeLag and the lagged prefixes are ones
// already judged. Inside the engine the cost is lower still: RunContext
// takes a per-test instance through forTest, which keeps the judged samples
// in an estimate.Crucial and the prefix estimates in a memo for the test, so
// a sample costs one Add (the windows that hold it) and one O(n) estimate,
// plus one one-shot estimate while the lagged prefix is still shorter than
// MinSamples.
func (f FastBTSPolicy) Decide(samples []float64, _ []estimate.TrajectoryPoint, _ time.Duration) Decision {
	var memo fastBTSMemo
	return f.withDefaults().decide(samples, &memo)
}

// decide is the FastBTS agreement rule, the only implementation of it: f has
// its defaults applied, and memo holds whatever prefix estimates of this same
// sample stream earlier calls left in it.
func (f FastBTSPolicy) decide(samples []float64, memo *fastBTSMemo) Decision {
	n := len(samples)
	if n < f.MinSamples {
		return Decision{}
	}
	// The streak ending at n: consecutive prefixes i = n, n−1, … ≥ MinSamples
	// whose estimate agrees with the one AgreeLag samples before it.
	agree := 0
	var latest float64 // the estimate over all n samples
	for i := n; i >= f.MinSamples; i-- {
		est := memo.estimateAt(f, samples, i)
		if i == n {
			latest = est
		}
		prev := memo.estimateAt(f, samples, i-f.AgreeLag)
		if !(prev > 0 && est > 0 && relDiff(est, prev) <= f.AgreeThreshold) {
			break
		}
		agree++
	}
	d := Decision{Checked: true, Check: float64(agree), Threshold: float64(f.AgreeRounds)}
	if agree >= f.AgreeRounds {
		d.Stop = true
		d.Estimate = latest
	}
	return d
}

// fastBTSMemo remembers the crucial-interval estimate of each prefix length
// of one sample stream, indexed by that length.
type fastBTSMemo []prefixEstimate

type prefixEstimate struct {
	mbps  float64
	known bool
}

// at is the memo entry of prefix length n, growing the memo to hold it.
func (m *fastBTSMemo) at(n int) *prefixEstimate {
	if n >= len(*m) {
		*m = append(*m, make(fastBTSMemo, n+1-len(*m))...)
	}
	return &(*m)[n]
}

// estimateAt is the crucial-interval estimate over the first n samples,
// excluding the warmup ramp; 0 while the ramp is all there is.
func (m *fastBTSMemo) estimateAt(f FastBTSPolicy, samples []float64, n int) float64 {
	if n <= f.Warmup {
		return 0
	}
	e := m.at(n)
	if !e.known {
		e.mbps, e.known = estimate.CrucialInterval(samples[f.Warmup:n]), true
	}
	return e.mbps
}

// fastBTSRun is a FastBTSPolicy bound to one test: the same rule over the
// same prefixes, with each prefix estimate computed once. A judged prefix
// takes its estimate from a crucial-interval table that the first judged
// call fills with samples[Warmup:n] and each later call feeds one sample;
// a lagged prefix shorter than MinSamples, which no call judges, goes
// through the memo's one-shot estimate. It relies on what RunContext
// guarantees — every call sees the previous call's samples plus one — and
// is not safe for concurrent use.
type fastBTSRun struct {
	FastBTSPolicy // defaults applied
	memo          fastBTSMemo
	table         estimate.Crucial // samples[Warmup:fed]
	fed           int
}

func (r *fastBTSRun) Decide(samples []float64, _ []estimate.TrajectoryPoint, _ time.Duration) Decision {
	if n := len(samples); n >= r.MinSamples && n > r.Warmup {
		for _, x := range samples[max(r.fed, r.Warmup):n] {
			r.table.Add(x)
		}
		r.fed = n
		*r.memo.at(n) = prefixEstimate{r.table.Estimate(), true}
	}
	return r.decide(samples, &r.memo)
}

// forTest implements perTestPolicy.
func (f FastBTSPolicy) forTest() TerminationPolicy {
	return &fastBTSRun{FastBTSPolicy: f.withDefaults()}
}

// perTestPolicy is the engine's one private hook behind the seam: a policy
// whose pure Decide repeats work across the calls of one test may hand
// RunContext an instance that lives for that test alone and carries the
// work forward. The instance must decide exactly as the pure policy does.
type perTestPolicy interface {
	forTest() TerminationPolicy
}

func relDiff(a, b float64) float64 {
	hi := a
	if b > hi {
		hi = b
	}
	if hi == 0 {
		return 0
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	return d / hi
}
