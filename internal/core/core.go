// Package core implements Swiftest's data-driven bandwidth probing — the
// primary contribution of the paper (§5.1).
//
// Instead of flooding the network for a fixed 10–15 seconds like commercial
// BTSes, Swiftest starts from a statistical model of the client's access
// technology: the multi-modal Gaussian distribution of Equation (1). The
// initial probing data rate is the most probable mode of that distribution,
// which skips TCP slow start's lengthy ramp entirely (the transport is
// UDP-paced, §5.1/§7). During the test the engine watches 50 ms bandwidth
// samples: if the latest sample does not fall below the probing rate the
// client's access link is not yet saturated, so the rate escalates to the
// most probable larger mode (adding servers as needed); otherwise the rate
// holds. The test stops as soon as the last ten samples converge — their
// max/min difference ratio is within 3 % — and reports their mean.
//
// The engine is transport-agnostic: it speaks to the network through the
// Probe interface, which is implemented both by the virtual-time emulator
// (SimProbe, used by every experiment) and by the real UDP transport in
// package transport.
package core

import (
	"context"
	"fmt"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/errdefs"
	"github.com/mobilebandwidth/swiftest/internal/estimate"
	"github.com/mobilebandwidth/swiftest/internal/gmm"
	"github.com/mobilebandwidth/swiftest/internal/obs"
	"github.com/mobilebandwidth/swiftest/internal/stats"
)

// ServerHealth is an optional Probe extension: probes over a server pool
// (SimProbe, the live transport's) report how many server sessions the test
// opened and how many were declared dead mid-test, so Run can mark the
// result Degraded. Probes without server accounting simply don't implement
// it.
type ServerHealth interface {
	// ServersUsed is the number of server sessions opened over the test.
	ServersUsed() int
	// ServersLost is the number of sessions declared lost mid-test.
	ServersLost() int
}

// RTTSampler is an optional Probe extension: probes with a delay source
// (the emulated link's queue model, the live transport's transit-time
// tracking) report the current round-trip time alongside each bandwidth
// sample, enabling the joint (BW, RTT) trajectory capture behind the BDP
// regime classification. Probes without one simply don't implement it; the
// classifier then works from bandwidth alone.
type RTTSampler interface {
	// SampleRTT reports the round-trip time observed around the most recent
	// bandwidth sample. ok is false when no observation is available yet.
	SampleRTT() (rtt time.Duration, ok bool)
}

// Probe is the transport seam: the engine requests a probing data rate and
// consumes periodic bandwidth samples.
type Probe interface {
	// SetRate asks the sending side to pace traffic at mbps. Implementations
	// add test servers as needed to cover the requested rate (§5.1).
	SetRate(mbps float64) error
	// NextSample blocks (or advances virtual time) until the next sampling
	// interval elapses and returns the observed throughput in Mbps. ok is
	// false when the probe can no longer produce samples.
	NextSample() (mbps float64, ok bool)
	// Elapsed reports time spent probing so far.
	Elapsed() time.Duration
	// DataMB reports the data volume consumed by the test so far, in MB.
	DataMB() float64
}

// Config parameterises the probing engine. The zero value of every field
// but Model selects the paper's published behaviour.
type Config struct {
	// Model is the bandwidth distribution for the client's access
	// technology. Required.
	Model *gmm.Model
	// MaxDuration bounds the test; Swiftest's field deployment saw a worst
	// case of 4.49 s (§5.3). Zero selects 5 s.
	MaxDuration time.Duration
	// Trace, when non-nil, receives the structured events of this test
	// (rate escalations, samples, convergence checks...). Events are
	// stamped with the probe's Elapsed() — virtual time under the emulator,
	// wall time over the real transport.
	Trace *obs.Trace
	// Metrics, when non-nil, aggregates test outcomes (convergence,
	// duration, data volume, bandwidth) across runs.
	Metrics *EngineMetrics
	// Terminate selects the policy deciding when the test has measured
	// enough: CrossingPolicy (the paper's §5.1 stability window),
	// FastBTSPolicy (crucial-interval lagged agreement), or
	// earlystop.Policy (the learned TURBOTEST-style model). Nil selects
	// CrossingPolicy{}.
	Terminate TerminationPolicy
}

// The §5.1 escalation rule's constants.
const (
	// saturationMargin is the relative gap below the probing rate at which
	// a sample shows the access link, not the probing rate, is the
	// bottleneck.
	saturationMargin = 0.05
	// settleSamples is the number of samples to wait after a rate change
	// before judging saturation again.
	settleSamples = 2
	// headroom multiplies the probing rate when escalating beyond the
	// largest mode of the model, covering clients faster than any mode.
	headroom = 1.25
)

// Result is the outcome of one Swiftest bandwidth test.
type Result struct {
	Bandwidth   float64       // estimated access bandwidth (Mbps)
	Duration    time.Duration // probing time (excludes server selection PING)
	DataMB      float64       // data consumed by the test
	Samples     []float64     // all 50 ms samples collected
	Converged   bool          // true if the 3 % criterion stopped the test
	RateChanges int           // number of probing-rate escalations
	InitialRate float64       // the model-selected initial probing rate
	FinalRate   float64       // the probing rate when the test ended
	ServersUsed int           // server sessions opened (1 for a one-server SimProbe; 0 when the probe has no server accounting)
	ServersLost int           // server sessions declared dead mid-test
	Degraded    bool          // true when the test survived losing at least one server

	// Estimates is the full estimator family computed over Samples; its
	// CrossingMbps equals Bandwidth.
	Estimates estimate.Estimates
	// Trajectory is the joint (BW, RTT) evolution of the test; RTT is zero
	// when the probe implements no RTTSampler.
	Trajectory []estimate.TrajectoryPoint
	// Regime classifies Trajectory (slow-start, queue-buildup, shaping,
	// stable, unknown).
	Regime estimate.Regime
}

// typicalSamples sizes a Result's sample and trajectory slices up front: a
// converging test ends within ≈1 s of 50 ms samples (§5.3), so most tests
// never grow them and a test that rides to the deadline grows them twice.
const typicalSamples = 32

// RunContext executes one bandwidth test over p using cfg, honouring ctx:
// cancellation or deadline expiry aborts the test between samples with an
// error matching errdefs.ErrTestAborted. An already-cancelled context
// aborts before the first rate is set — no datagram is sent.
func RunContext(ctx context.Context, p Probe, cfg Config) (Result, error) {
	if cfg.Model == nil {
		return Result{}, fmt.Errorf("core: Config.Model: %w", errdefs.ErrModelRequired)
	}
	if cfg.MaxDuration <= 0 {
		cfg.MaxDuration = 5 * time.Second
	}

	initial := cfg.Model.MostProbableMode().Rate
	if initial <= 0 {
		return Result{}, fmt.Errorf("core: model's most probable mode %g is not a usable rate", initial)
	}
	if err := ctx.Err(); err != nil {
		return Result{}, fmt.Errorf("core: %w before start: %w", errdefs.ErrTestAborted, err)
	}
	rate := initial
	cfg.Metrics.onStart()
	if err := p.SetRate(rate); err != nil {
		cfg.Trace.Record(p.Elapsed(), obs.EventError, 0, 0, err.Error())
		return Result{}, fmt.Errorf("core: setting initial rate: %w", err)
	}
	cfg.Trace.Record(p.Elapsed(), obs.EventRateInit, rate, 0, "")

	res := Result{
		InitialRate: initial,
		Samples:     make([]float64, 0, typicalSamples),
		Trajectory:  make([]estimate.TrajectoryPoint, 0, typicalSamples),
	}
	settle := settleSamples
	rttSrc, _ := p.(RTTSampler)
	policy := cfg.Terminate
	if policy == nil {
		policy = CrossingPolicy{}
	}
	if pt, ok := policy.(perTestPolicy); ok {
		policy = pt.forTest()
	}
	for p.Elapsed() < cfg.MaxDuration {
		s, ok := p.NextSample()
		if err := ctx.Err(); err != nil {
			// Cancelled while (or just before) waiting on the sample.
			cfg.Trace.Record(p.Elapsed(), obs.EventAborted, 0, 0, err.Error())
			cfg.Metrics.onAbort()
			res.Duration = p.Elapsed()
			res.DataMB = p.DataMB()
			return res, fmt.Errorf("core: %w: %w", errdefs.ErrTestAborted, err)
		}
		if !ok {
			cfg.Trace.Record(p.Elapsed(), obs.EventProbeEnd, 0, 0, "")
			break
		}
		res.Samples = append(res.Samples, s)
		cfg.Trace.Record(p.Elapsed(), obs.EventSample, s, rate, "")
		pt := estimate.TrajectoryPoint{At: p.Elapsed(), Mbps: s}
		if rttSrc != nil {
			if rtt, ok := rttSrc.SampleRTT(); ok {
				pt.RTT = rtt
				cfg.Trace.Record(p.Elapsed(), obs.EventRTTSample, float64(rtt)/float64(time.Millisecond), s, "")
			}
		}
		res.Trajectory = append(res.Trajectory, pt)
		if settle > 0 {
			settle--
		}

		// Termination: the policy judges the sample/trajectory prefix after
		// every sample — the §5.1 crossing rule by default, FastBTS's
		// crucial-interval agreement or the learned earlystop model when
		// configured.
		d := policy.Decide(res.Samples, res.Trajectory, p.Elapsed())
		if d.Checked {
			cfg.Trace.Record(p.Elapsed(), obs.EventConvergeCheck, d.Check, d.Threshold, "")
		}
		if d.Stop {
			res.Bandwidth = d.Estimate
			res.Converged = true
			if d.Early {
				cfg.Metrics.onEarlyStop()
				cfg.Trace.Record(p.Elapsed(), obs.EventEarlyStop, res.Bandwidth, d.Check, d.Note)
			}
			cfg.Trace.Record(p.Elapsed(), obs.EventConverged, res.Bandwidth, d.Check, d.Note)
			break
		}

		// Saturation judgement: a sample at (or above) the probing rate
		// means the probing rate, not the access link, is the bottleneck —
		// escalate to the most probable larger mode.
		if settle == 0 && s >= rate*(1-saturationMargin) {
			next, ok := cfg.Model.NextLargerMode(rate)
			var newRate float64
			note := "mode"
			if ok {
				newRate = next.Rate
			} else {
				newRate = rate * headroom
				note = "headroom"
			}
			if newRate > rate {
				oldRate := rate
				rate = newRate
				if err := p.SetRate(rate); err != nil {
					cfg.Trace.Record(p.Elapsed(), obs.EventError, 0, 0, err.Error())
					return res, fmt.Errorf("core: escalating rate: %w", err)
				}
				cfg.Trace.Record(p.Elapsed(), obs.EventEscalate, rate, oldRate, note)
				res.RateChanges++
				cfg.Metrics.onEscalate()
				settle = settleSamples
			}
		}
	}

	if !res.Converged {
		// Deadline or probe exhaustion: report the trailing-window mean.
		res.Bandwidth = stats.Mean(estimate.Tail(res.Samples))
		cfg.Trace.Record(p.Elapsed(), obs.EventTimeout, res.Bandwidth, 0, "")
	}
	res.Duration = p.Elapsed()
	res.DataMB = p.DataMB()
	res.FinalRate = rate
	if h, ok := p.(ServerHealth); ok {
		res.ServersUsed = h.ServersUsed()
		res.ServersLost = h.ServersLost()
		res.Degraded = res.ServersLost > 0 && res.ServersUsed > res.ServersLost
	}
	res.Estimates = estimate.Compute(res.Samples, res.Bandwidth)
	res.Regime = estimate.ClassifyBDP(res.Trajectory)
	if cfg.Trace != nil {
		cfg.Trace.Record(res.Duration, obs.EventEstimate, res.Estimates.TrimmedMeanMbps, 0, "trimmed_mean")
		cfg.Trace.Record(res.Duration, obs.EventEstimate, res.Estimates.SustainedPeakMbps, 0, "sustained_peak")
		cfg.Trace.Record(res.Duration, obs.EventEstimate, res.Estimates.P90P80Mbps, 0, "p90_p80")
		cfg.Trace.Record(res.Duration, obs.EventRegime, float64(res.Regime), 0, res.Regime.String())
	}
	cfg.Metrics.onFinish(res)
	return res, nil
}
