package swiftest

import (
	"context"
	"strconv"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/baseline"
	"github.com/mobilebandwidth/swiftest/internal/core"
	"github.com/mobilebandwidth/swiftest/internal/emu"
	"github.com/mobilebandwidth/swiftest/internal/estimate"
	"github.com/mobilebandwidth/swiftest/internal/linksim"
	"github.com/mobilebandwidth/swiftest/internal/ranprofile"
)

// LinkConfig describes an emulated mobile access link for virtual-time
// experiments. See the linksim package documentation for the semantics of
// each knob.
type LinkConfig struct {
	// CapacityMbps is the bottleneck capacity of the access link. Required.
	CapacityMbps float64
	// RTT is the base round-trip time; zero selects 40 ms.
	RTT time.Duration
	// Fluctuation is the relative capacity noise (e.g. 0.02 = 2 %).
	Fluctuation float64
	// LossRate is the spurious per-tick loss probability.
	LossRate float64
	// ShapingBurstMB and ShapingMbps, when ShapingMbps > 0, apply ISP-style
	// token-bucket traffic shaping: after ShapingBurstMB of traffic the
	// link clamps to ShapingMbps.
	ShapingBurstMB float64
	ShapingMbps    float64
	// Seed makes the emulation deterministic: the same LinkConfig and Seed
	// replay the same link, tick for tick. Which noise stream a seed names
	// is the generator's business, not part of the contract.
	Seed int64
	// Profile, when non-nil, drives the link through a RAN scenario's
	// state machine seeded from Seed — every runner that accepts a
	// LinkConfig (SimulateTestContext, RunBTSApp, RunFAST, RunFastBTS) then
	// sees the same replayable state chain, so baselines and Swiftest are
	// comparable on identical dynamics.
	// CapacityMbps and RTT are ignored while a profile drives the link.
	// Under SimulateTestContext, state changes and handovers appear in the
	// trace and dwell/handover instruments in the metrics registry.
	Profile *Profile
}

func (c LinkConfig) toInternal() linksim.Config {
	cfg := linksim.Config{
		CapacityMbps: c.CapacityMbps,
		RTT:          c.RTT,
		Fluctuation:  c.Fluctuation,
		LossRate:     c.LossRate,
	}
	if cfg.RTT <= 0 {
		cfg.RTT = 40 * time.Millisecond
	}
	if c.ShapingMbps > 0 {
		cfg.Shaping = &linksim.Shaper{BurstMB: c.ShapingBurstMB, SustainedMbps: c.ShapingMbps}
	}
	return cfg
}

// newLink builds the emulated link, installing the profile state machine
// when one drives it.
func (c LinkConfig) newLink(trace *Trace, metrics *MetricsRegistry) (*linksim.Link, error) {
	cfg := c.toInternal()
	if c.Profile != nil {
		machine := ranprofile.NewMachine(c.Profile, c.Seed, ranprofile.MachineOptions{
			Trace:   trace,
			Metrics: ranprofile.NewLinkMetrics(metrics),
		})
		cfg.StateHook = machine.Hook()
	}
	return linksim.New(cfg, c.Seed)
}

// SimServer describes one emulated test server in a multi-server
// simulation (SimulateOptions.Servers). Servers are consulted
// nearest-first in slice order, mirroring the real transport's RTT-ranked
// pool; Addr labels the server in trace events, UplinkMbps caps the
// probing rate it can source.
type SimServer = core.SimServer

// SimulateOptions attaches observability and fault scenarios to an
// emulated test. Trace events are stamped in virtual time — the same
// run-record schema as a live Test — and Faults inject the plan into the
// emulated pool (fault times are virtual milliseconds since the test
// started; server indexes refer to Servers order).
type SimulateOptions struct {
	// SessionOptions carries the trace, metrics, resilience, and fault
	// knobs shared with the live runner (TestOptions).
	SessionOptions
	// Servers, when non-empty, emulates a multi-server pool sharing the
	// access link, opened, split and failed over by the live client's rule.
	// Empty emulates one uncapped server.
	Servers []SimServer
}

// SimulateTestContext runs one Swiftest bandwidth test on an emulated access
// link in virtual time (microseconds of wall clock), through exactly the same
// probing engine and instrumentation as TestContext, so run-records from
// virtual and real tests are directly comparable. The zero SimulateOptions is
// a plain test. The emulator runs in virtual time, so the context matters only
// for aborting long parameter sweeps between samples; cancellation returns
// an error wrapping ErrTestAborted, like a live test.
func SimulateTestContext(ctx context.Context, link LinkConfig, model *Model, opts SimulateOptions) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := opts.Faults.Validate(); err != nil {
		return Result{}, err
	}
	l, err := link.newLink(opts.Trace, opts.Metrics)
	if err != nil {
		return Result{}, err
	}
	if opts.Trace != nil {
		opts.Trace.SetMeta("source", "sim")
		opts.Trace.SetMeta("capacity_mbps", strconv.FormatFloat(link.CapacityMbps, 'g', -1, 64))
		opts.Trace.SetMeta("seed", strconv.FormatInt(link.Seed, 10))
		if link.Profile != nil {
			opts.Trace.SetMeta("profile", link.Profile.Name)
		}
	}
	probe := core.NewSimProbe(l, core.SimPoolConfig{
		Servers: opts.Servers,
		Faults:  opts.Faults.Injector(),
		Trace:   opts.Trace,
	})
	defer probe.Close()
	res, err := core.RunContext(ctx, probe, core.Config{
		Model:     model,
		Trace:     opts.Trace,
		Metrics:   core.NewEngineMetrics(opts.Metrics),
		Terminate: opts.Terminate,
	})
	if err != nil {
		return Result{}, err
	}
	return fromCore(res), nil
}

// BaselineReport is the outcome of a baseline BTS test on an emulated link.
type BaselineReport struct {
	System        string
	BandwidthMbps float64
	Duration      time.Duration
	DataMB        float64
	Connections   int
	// Estimates is the estimator family over the baseline's
	// 50 ms samples — the same struct Result carries, so baselines and
	// Swiftest are comparable estimator by estimator.
	Estimates Estimates
	// Regime classifies the baseline's bandwidth trajectory (RTT-blind:
	// the baselines expose no RTT stream, so only bandwidth-shape regimes
	// such as shaping are detectable).
	Regime BDPRegime
}

func fromBaseline(name string, r baseline.Report) BaselineReport {
	traj := make([]estimate.TrajectoryPoint, len(r.Samples))
	for i, s := range r.Samples {
		traj[i] = estimate.TrajectoryPoint{At: time.Duration(i+1) * 50 * time.Millisecond, Mbps: s}
	}
	return BaselineReport{
		System:        name,
		BandwidthMbps: r.Result,
		Duration:      r.Duration,
		DataMB:        r.DataMB,
		Connections:   r.Flows,
		Estimates:     estimate.Compute(r.Samples, r.Result),
		Regime:        estimate.ClassifyBDP(traj),
	}
}

// RunBTSApp runs the commercial flooding baseline of §2 (10-second
// multi-connection TCP download with Speedtest-style trimming) on an
// emulated link.
func RunBTSApp(link LinkConfig) (BaselineReport, error) {
	l, err := link.newLink(nil, nil)
	if err != nil {
		return BaselineReport{}, err
	}
	return fromBaseline("bts-app", (&baseline.BTSApp{}).Run(l)), nil
}

// RunFAST runs the fast.com-style stability-stop baseline on an emulated
// link.
func RunFAST(link LinkConfig) (BaselineReport, error) {
	l, err := link.newLink(nil, nil)
	if err != nil {
		return BaselineReport{}, err
	}
	return fromBaseline("fast", (&baseline.FAST{}).Run(l)), nil
}

// RunFastBTS runs the FastBTS crucial-interval baseline (NSDI '21) on an
// emulated link.
func RunFastBTS(link LinkConfig) (BaselineReport, error) {
	l, err := link.newLink(nil, nil)
	if err != nil {
		return BaselineReport{}, err
	}
	return fromBaseline("fastbts", (&baseline.FastBTS{}).Run(l)), nil
}

// LinkRelay is a running real-socket access-link emulator: a UDP relay that
// shapes traffic between a real client and a real server with a bottleneck
// rate, propagation delay, and loss. Point clients at Addr() instead of the
// server.
type LinkRelay = emu.Relay

// LinkRelayConfig configures a LinkRelay; see the emu package for semantics.
type LinkRelayConfig = emu.Config

// NewLinkRelay starts a relay shaping traffic toward cfg.Target, so the real
// UDP transport can be exercised under 4G/5G/WiFi-like conditions.
func NewLinkRelay(cfg LinkRelayConfig) (*LinkRelay, error) {
	return emu.NewRelay(cfg)
}
