// Package swiftest is the public API of this repository's bandwidth test: a
// production-style implementation of the Swiftest ultra-fast, ultra-light
// bandwidth testing service from "Mobile Access Bandwidth in Practice:
// Measurement, Analysis, and Implications" (SIGCOMM 2022) — the test server,
// the client test, and the same engine on a virtual-time access-link
// emulator beside the baselines it is compared with. The rest of the paper's
// system (the §3 measurement study, the §5.2 deployment planner and fleet
// control plane, scenario campaigns) is operated through the swiftest
// command's verbs.
//
// # Running a real bandwidth test
//
// Start a test server (or several) and run a client test against them:
//
//	srv, _ := swiftest.NewServer("0.0.0.0:7007", swiftest.ServerOptions{UplinkMbps: 100})
//	defer srv.Close()
//
//	res, err := swiftest.TestContext(ctx, swiftest.TestOptions{
//		Servers: []swiftest.ServerAddr{{Addr: "203.0.113.7:7007", UplinkMbps: 100}},
//		Model:   swiftest.DefaultModel(swiftest.Tech5G),
//	})
//
// The test transport is the paper's UDP probing protocol; the probing logic
// is the data-driven engine of §5.1: the initial rate is the most probable
// mode of the technology's bandwidth model, the rate escalates through
// larger modes while the access link is unsaturated, and the test stops as
// soon as ten consecutive 50 ms samples agree within 3 %.
//
// # Emulation and experiments
//
// The same engine runs on a virtual-time link emulator, which is how the
// repository regenerates every figure of the paper quickly and
// deterministically; see SimulateTestContext and the baselines (RunBTSApp,
// RunFAST, RunFastBTS).
package swiftest

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"os"
	"strconv"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/core"
	"github.com/mobilebandwidth/swiftest/internal/dataset"
	"github.com/mobilebandwidth/swiftest/internal/estimate"
	"github.com/mobilebandwidth/swiftest/internal/faults"
	"github.com/mobilebandwidth/swiftest/internal/gmm"
	"github.com/mobilebandwidth/swiftest/internal/obs"
	"github.com/mobilebandwidth/swiftest/internal/transport"
	"github.com/mobilebandwidth/swiftest/internal/wire"
)

// MetricsRegistry aggregates operational metrics — counters, gauges and
// mergeable histograms with atomic, allocation-free updates. Share one
// registry between servers and tests to aggregate, expose it over HTTP with
// its Handler method (Prometheus text exposition, version 0.0.4), or take a
// programmatic Snapshot. A nil registry disables every update at the cost of
// one nil check.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// Trace records the structured events of one bandwidth test (rate
// escalations, 50 ms samples, convergence checks, server additions) into a
// bounded ring. Dump it as a JSONL run-record with WriteJSONL. Event
// timestamps are the probe's elapsed time: virtual under SimulateTestContext,
// wall time under TestContext — the record schema is identical in both worlds.
type Trace = obs.Trace

// TraceEvent is one structured trace record.
type TraceEvent = obs.Event

// NewTrace returns a tracer whose default bound holds every realistic test.
func NewTrace() *Trace { return obs.NewTrace(obs.DefaultTraceCapacity) }

// Tech identifies a mobile access technology.
type Tech = dataset.Tech

// Access technologies with calibrated bandwidth models.
const (
	Tech4G   = dataset.Tech4G
	Tech5G   = dataset.Tech5G
	TechWiFi = dataset.TechWiFi
)

// Model is a multi-modal Gaussian bandwidth model (Equation 1 of the paper):
// the statistical prior that seeds and steers Swiftest's probing.
type Model = gmm.Model

// ModelComponent is one Gaussian mode of a Model.
type ModelComponent = gmm.Component

// NewModel builds a bandwidth model from explicit modes.
func NewModel(components ...ModelComponent) (*Model, error) {
	return gmm.New(components...)
}

// FitModel estimates a bandwidth model from observed test results (Mbps)
// with EM and BIC model selection — the periodic model-refresh path of §5.1.
// kmax bounds the number of modes considered.
func FitModel(resultsMbps []float64, kmax int, seed int64) (*Model, error) {
	m, _, err := gmm.FitBIC(resultsMbps, kmax, rand.New(rand.NewSource(seed)))
	return m, err
}

// DefaultModel returns the calibrated 2021 bandwidth model for a technology,
// derived from the paper's measurement study (Figures 16, 18, 19).
func DefaultModel(tech Tech) (*Model, error) {
	return dataset.TechModel(tech)
}

// SaveModel writes a bandwidth model to path as versioned JSON — how a
// deployment persists the periodically refreshed models of §5.1.
func SaveModel(path string, m *Model) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("swiftest: encoding model: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadModel reads a bandwidth model previously written by SaveModel.
func LoadModel(path string) (*Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("swiftest: reading model: %w", err)
	}
	var m Model
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// Estimates is the estimator family computed over a test's 50 ms
// samples: the paper's crossing estimate plus the trimmed-mean,
// sustained-peak and P90–P80 summaries. Every runner — live
// TestContext, emulated SimulateTestContext, the baselines — reports the same struct, so results are
// comparable across worlds.
type Estimates = estimate.Estimates

// BDPRegime classifies how a test's joint (bandwidth, RTT) trajectory
// evolved: slow-start, queue-buildup, shaping, stable, or unknown.
type BDPRegime = estimate.Regime

// BDP regime classifications.
const (
	RegimeUnknown      = estimate.RegimeUnknown
	RegimeSlowStart    = estimate.RegimeSlowStart
	RegimeQueueBuildup = estimate.RegimeQueueBuildup
	RegimeShaping      = estimate.RegimeShaping
	RegimeStable       = estimate.RegimeStable
)

// TrajectoryPoint is one joint (bandwidth, RTT) observation of a test's
// trajectory; RTT is zero when the runner has no RTT source.
type TrajectoryPoint = estimate.TrajectoryPoint

// Result is the outcome of one Swiftest bandwidth test.
type Result struct {
	// BandwidthMbps is the estimated downstream access bandwidth.
	BandwidthMbps float64
	// Duration is the probing time, excluding server selection.
	Duration time.Duration
	// SelectionTime is the PING-based server-selection time (zero for
	// emulated tests).
	SelectionTime time.Duration
	// DataMB is the data consumed by the test at the client.
	DataMB float64
	// Samples are the 50 ms bandwidth samples collected.
	Samples []float64
	// Converged reports whether the 3 % criterion stopped the test (false
	// means the deadline was hit and the trailing window was reported).
	Converged bool
	// RateChanges counts probing-rate escalations.
	RateChanges int
	// InitialRateMbps is the model-selected initial probing rate.
	InitialRateMbps float64
	// Jitter is the interarrival-jitter estimate of the probe stream
	// (RFC 3550 style), a free link-quality diagnostic. Zero for emulated
	// tests.
	Jitter time.Duration
	// ServersUsed counts the test servers that carried probe traffic. An
	// emulated test without SimulateOptions.Servers reports 1: its one
	// uncapped server.
	ServersUsed int
	// ServersLost counts servers that went silent mid-test and were failed
	// over away from.
	ServersLost int
	// Degraded reports that the test lost at least one server mid-flight
	// but finished on the survivors: the estimate is valid but was produced
	// under reduced pool capacity.
	Degraded bool
	// Estimates is the full estimator family over Samples; its crossing
	// figure equals BandwidthMbps.
	Estimates Estimates
	// Trajectory is the joint (bandwidth, RTT) evolution of the test; RTT
	// is zero where the probe had no RTT source.
	Trajectory []TrajectoryPoint
	// Regime classifies Trajectory by how the bandwidth-delay product
	// evolved — the Figure-17-style view of what bounded the test.
	Regime BDPRegime
}

func fromCore(r core.Result) Result {
	return Result{
		BandwidthMbps:   r.Bandwidth,
		Duration:        r.Duration,
		DataMB:          r.DataMB,
		Samples:         r.Samples,
		Converged:       r.Converged,
		RateChanges:     r.RateChanges,
		InitialRateMbps: r.InitialRate,
		ServersUsed:     r.ServersUsed,
		ServersLost:     r.ServersLost,
		Degraded:        r.Degraded,
		Estimates:       r.Estimates,
		Trajectory:      r.Trajectory,
		Regime:          r.Regime,
	}
}

// ServerOptions configures a Swiftest test server.
type ServerOptions struct {
	// UplinkMbps caps the server's aggregate probe egress; zero selects
	// 100 Mbps, the budget-VM class of §5.2.
	UplinkMbps float64
	// Logger receives operational events; nil disables logging.
	Logger *slog.Logger
	// OnResult receives each client-reported result (for model refresh).
	OnResult func(mbps float64)
	// Metrics, when non-nil, receives the server's operational metrics
	// (session lifecycle, pacing, drops, idle reaps).
	Metrics *MetricsRegistry
	// FaultPlan, when non-nil, makes the server act out the plan's faults:
	// drop handshakes, fall silent during blackouts, delay or duplicate
	// pongs, lose probe datagrams, clamp pacing. Fault times are elapsed
	// wall time since NewServer.
	FaultPlan *FaultPlan
	// FaultServer is this server's index in the fault plan's pool order
	// (Fault.Server). Only consulted when FaultPlan is non-nil.
	FaultServer int
	// Wire selects the server's send/receive syscall path. WireAuto (the
	// zero value) uses batched message syscalls plus UDP segmentation
	// offload where the kernel supports them; WireFallback forces the
	// portable one-datagram-per-syscall path. Both put byte-identical
	// datagram streams on the wire.
	Wire WireMode
	// AuthKey, when non-zero, requires every client to present an unexpired
	// session token minted under this key (see MintAuthToken and the fleet
	// dispatcher's lease tokens). A keyed server has no unauthenticated
	// session path.
	AuthKey uint64
}

// WireMode selects the syscall path probe datagrams take to the wire.
type WireMode = transport.WireMode

const (
	// WireAuto negotiates the fastest available path at startup.
	WireAuto = transport.WireAuto
	// WireFallback forces the portable single-message path.
	WireFallback = transport.WireFallback
)

// Server is a running Swiftest UDP test server.
type Server struct {
	inner *transport.Server
}

// NewServer starts a test server on addr (e.g. ":7007" or "127.0.0.1:0").
func NewServer(addr string, opts ServerOptions) (*Server, error) {
	var binding *faults.Binding
	if opts.FaultPlan != nil {
		if err := opts.FaultPlan.Validate(); err != nil {
			return nil, fmt.Errorf("swiftest: fault plan: %w", err)
		}
		binding = &faults.Binding{Inj: opts.FaultPlan.Injector(), Server: opts.FaultServer}
	}
	s, err := transport.NewServer(addr, transport.ServerConfig{
		UplinkMbps: opts.UplinkMbps,
		Logger:     opts.Logger,
		OnResult:   opts.OnResult,
		Metrics:    opts.Metrics,
		Faults:     binding,
		Wire:       opts.Wire,
		AuthKey:    opts.AuthKey,
	})
	if err != nil {
		return nil, err
	}
	return &Server{inner: s}, nil
}

// Addr reports the server's bound address ("host:port").
func (s *Server) Addr() string { return s.inner.Addr().String() }

// BytesSent reports cumulative probe bytes sent, for utilization accounting.
func (s *Server) BytesSent() int64 { return s.inner.BytesSent() }

// ActiveTests reports the number of in-flight tests.
func (s *Server) ActiveTests() int { return s.inner.ActiveSessions() }

// BlackedOut reports whether the server's fault plan has it blacked out
// right now. Fleet heartbeat loops gate beats on this so an injected
// blackout silences the control plane and the data plane together.
func (s *Server) BlackedOut() bool { return s.inner.BlackedOut() }

// Close stops the server.
func (s *Server) Close() error { return s.inner.Close() }

// ServerAddr names one test server available to a client.
type ServerAddr struct {
	Addr string // "host:port"
	// UplinkMbps is the server's advertised egress capacity. Required, and
	// a positive finite number: the client opens servers until their uplinks
	// cover the probing rate and asks none for more than its uplink.
	UplinkMbps float64
}

// AuthToken authenticates a test session against a keyed deployment: the
// fleet dispatcher mints one per lease (MintAuthToken) and the client
// presents it at session setup.
type AuthToken = wire.Token

// MintAuthToken authenticates (server, seq) under the deployment key — what
// the fleet dispatcher does per lease — until the expires instant, after
// which servers reject the token at session setup. The MAC covers the
// deadline, so holders cannot extend it. A zero expires mints a token that
// never expires. Self-serve clients of an open (unkeyed) deployment never
// need one.
func MintAuthToken(key uint64, server uint32, seq uint64, expires time.Time) AuthToken {
	var ms uint64
	if !expires.IsZero() {
		ms = uint64(expires.UnixMilli())
	}
	return wire.MintToken(key, server, seq, ms)
}

// ParseAuthToken decodes the hex form produced by AuthToken.String — the
// shape tokens travel in through dispatch responses and CLI flags.
func ParseAuthToken(s string) (AuthToken, error) { return wire.ParseToken(s) }

// SessionOptions is the observability and resilience configuration shared by
// every test runner — live (TestOptions) and emulated (SimulateOptions)
// alike. The zero value disables all of it.
type SessionOptions struct {
	// Trace, when non-nil, receives the structured events of this test for
	// a JSONL run-record (see Trace).
	Trace *Trace
	// Metrics, when non-nil, aggregates engine outcomes (convergence,
	// duration, data volume, bandwidth) across tests — plus the client's
	// resilience counters (sessions lost, handshake retries).
	Metrics *MetricsRegistry
	// Faults, when non-nil, is a validated fault-injection plan acted out
	// against the test. Only the emulated runners accept one: a live
	// TestContext rejects a non-nil plan, because real servers inject
	// their own faults via ServerOptions.FaultPlan.
	Faults *FaultPlan
	// Terminate selects the termination policy deciding when the test has
	// measured enough: CrossingTermination (the paper's §5.1 rule, the
	// default), FastBTSTermination, or EarlyStopTermination (the learned
	// model). Nil selects the crossing rule.
	Terminate TerminationPolicy
}

// selectionPings is the number of latency probes per server during server
// selection.
const selectionPings = 3

// TestOptions configures a client-side bandwidth test.
type TestOptions struct {
	// SessionOptions carries the trace, metrics, and resilience knobs
	// shared with the emulated runners. Faults must be nil on live tests.
	SessionOptions
	// Servers is the candidate test-server pool. Required.
	Servers []ServerAddr
	// Model is the bandwidth model for the client's access technology.
	// Required; use DefaultModel or FitModel.
	Model *Model
	// PingTimeout bounds each selection probe; zero selects 1 s.
	PingTimeout time.Duration
	// MaxDuration bounds the probing phase; zero selects 5 s.
	MaxDuration time.Duration
	// Seed drives test-ID generation; zero derives one from the clock.
	Seed int64
	// Token authenticates the session against a keyed deployment (see
	// AuthToken). Leave zero for open deployments.
	Token AuthToken
}

// TestContext runs one full Swiftest bandwidth test over real UDP: server
// selection by PING latency, data-driven probing, convergence, and result
// reporting back to the servers. Cancellation or deadline expiry on ctx
// aborts server selection, session setup, and the probing loop at the next
// sample boundary, returning an error wrapping ErrTestAborted. A context
// that is already done aborts before a single datagram is sent.
func TestContext(ctx context.Context, opts TestOptions) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return Result{}, fmt.Errorf("swiftest: %w before start: %w", ErrTestAborted, err)
	}
	if len(opts.Servers) == 0 {
		return Result{}, fmt.Errorf("swiftest: %w", ErrNoServers)
	}
	if opts.Model == nil {
		return Result{}, fmt.Errorf("swiftest: %w (see DefaultModel)", ErrModelRequired)
	}
	for _, s := range opts.Servers {
		if !(s.UplinkMbps > 0) || math.IsInf(s.UplinkMbps, 1) {
			return Result{}, fmt.Errorf("swiftest: %w", &ServerError{Addr: s.Addr, Op: "uplink",
				Err: fmt.Errorf("%g Mbit/s is not a positive finite number", s.UplinkMbps)})
		}
	}
	if opts.Faults != nil {
		return Result{}, fmt.Errorf("swiftest: fault plans apply to emulated tests and fault-injecting servers, not the live client; set ServerOptions.FaultPlan or use SimulateTestContext")
	}
	seed := opts.Seed
	if seed == 0 {
		seed = time.Now().UnixNano() //lint:allow walltime entropy for live test IDs; experiments pass explicit seeds
	}

	pool := &transport.ServerPool{}
	for _, s := range opts.Servers {
		pool.Servers = append(pool.Servers, transport.PoolServer{Addr: s.Addr, UplinkMbps: s.UplinkMbps})
	}
	selStart := time.Now() //lint:allow walltime measures real server-selection latency in the live client path
	if err := pool.RankByLatencyContext(ctx, selectionPings, opts.PingTimeout); err != nil {
		return Result{}, fmt.Errorf("swiftest: server selection: %w", err)
	}
	selectionTime := time.Since(selStart) //lint:allow walltime measures real server-selection latency in the live client path

	probe, err := transport.NewUDPProbeContext(ctx, pool, rand.New(rand.NewSource(seed)), transport.ProbeConfig{
		Trace:   opts.Trace,
		Metrics: opts.Metrics,
		Token:   opts.Token,
	})
	if err != nil {
		return Result{}, fmt.Errorf("swiftest: preparing probe: %w", err)
	}
	if opts.Trace != nil {
		opts.Trace.SetMeta("source", "udp")
		opts.Trace.SetMeta("test_id", strconv.FormatUint(probe.TestID(), 10))
		opts.Trace.SetMeta("started_unix_ms", strconv.FormatInt(time.Now().UnixMilli(), 10)) //lint:allow walltime run-record start stamp for correlating live tests with server logs
	}
	res, err := core.RunContext(ctx, probe, core.Config{
		Model:       opts.Model,
		MaxDuration: opts.MaxDuration,
		Trace:       opts.Trace,
		Metrics:     core.NewEngineMetrics(opts.Metrics),
		Terminate:   opts.Terminate,
	})
	jitter := probe.Jitter()
	probe.SetFinalReport(res.Estimates, res.Regime)
	probe.Finish(res.Bandwidth, res.Duration)
	if err != nil {
		return Result{}, fmt.Errorf("swiftest: probing: %w", err)
	}
	out := fromCore(res)
	out.SelectionTime = selectionTime
	out.Jitter = jitter
	return out, nil
}

// PingOptions configures a latency probe train against one test server.
// The zero value (beyond Addr) selects the same defaults server selection
// uses: 3 probes, 1 s apiece.
type PingOptions struct {
	// Addr is the server to probe ("host:port"). Required.
	Addr string
	// Count is the number of probes; the minimum RTT across them is
	// reported. Zero selects 3.
	Count int
	// Timeout bounds each probe; zero selects 1 s.
	Timeout time.Duration
}

// PingServer measures the minimum round-trip latency to one test server.
// Cancellation or deadline expiry on ctx cuts the probe train short.
// Failures wrap ErrProbeTimeout (no answer) or ErrTestAborted (cancelled)
// inside a *ServerError naming the address.
func PingServer(ctx context.Context, opts PingOptions) (time.Duration, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return transport.PingServerContext(ctx, opts.Addr, opts.Count, opts.Timeout)
}

// ModelStore maintains a bandwidth model refreshed periodically from
// reported test results — the §5.1 model-refresh pipeline. Feed it from
// ServerOptions.OnResult and serve Model() to clients.
type ModelStore = core.ModelStore

// RefreshConfig parameterises a ModelStore.
type RefreshConfig = core.RefreshConfig

// NewModelStore returns a store seeded with an initial model (typically
// DefaultModel for the deployment's dominant technology).
func NewModelStore(seed *Model, cfg RefreshConfig) (*ModelStore, error) {
	return core.NewModelStore(seed, cfg)
}
