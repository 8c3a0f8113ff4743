package main

// adapter.go is the only file of the benchmark that imports the program
// under test. Every call the benchmark makes into the repository is a
// function in this file, so a later change that renames or deletes one of
// these entry points breaks the build here and nowhere else. The list is
// repeated in README.md ("Durable surface").

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"time"

	swiftest "github.com/mobilebandwidth/swiftest"
	"github.com/mobilebandwidth/swiftest/internal/baseline"
	"github.com/mobilebandwidth/swiftest/internal/core"
	"github.com/mobilebandwidth/swiftest/internal/deploy"
	"github.com/mobilebandwidth/swiftest/internal/earlystop"
	"github.com/mobilebandwidth/swiftest/internal/emu"
	"github.com/mobilebandwidth/swiftest/internal/estimate"
	"github.com/mobilebandwidth/swiftest/internal/exper"
	"github.com/mobilebandwidth/swiftest/internal/fleet"
	"github.com/mobilebandwidth/swiftest/internal/linksim"
	"github.com/mobilebandwidth/swiftest/internal/loadgen"
	"github.com/mobilebandwidth/swiftest/internal/obs"
	"github.com/mobilebandwidth/swiftest/internal/ranprofile"
	"github.com/mobilebandwidth/swiftest/internal/transport"
	"github.com/mobilebandwidth/swiftest/internal/transport/batchio"
	"github.com/mobilebandwidth/swiftest/internal/wire"
)

// Handles of the program that cross into the other benchmark files, opaque
// there: they are made here and handed back here.
type (
	registry   = obs.Registry
	eventTrace = obs.Trace
)

// testOutcome is what the benchmark keeps of a test result, live or
// emulated.
type testOutcome struct {
	mbps      float64
	duration  time.Duration
	dataMB    float64
	samples   []float64
	converged bool
}

func fromResult(r swiftest.Result) testOutcome {
	return testOutcome{mbps: r.BandwidthMbps, duration: r.Duration, dataMB: r.DataMB, samples: r.Samples, converged: r.Converged}
}

func fromCore(r core.Result) testOutcome {
	return testOutcome{mbps: r.Bandwidth, duration: r.Duration, dataMB: r.DataMB, samples: r.Samples, converged: r.Converged}
}

func newRegistry() *registry { return obs.NewRegistry() }

func newEventTrace(capacity int) *eventTrace { return obs.NewTrace(capacity) }

// counterValue and histogramCount read one series of a registry snapshot;
// a series the program never registered reads 0.
func counterValue(reg *registry, name string) float64 {
	return float64(reg.Snapshot().Counters[name])
}

func histogramCount(reg *registry, name string) float64 {
	return float64(reg.Snapshot().Histograms[name].Count)
}

// Kinds of trace event the sim-static rows count.
const (
	eventSample    = obs.EventSample
	eventEscalate  = obs.EventEscalate
	eventConverged = obs.EventConverged
)

// countEvents tallies the trace's events by kind and empties it.
func countEvents(tr *eventTrace, into map[string]int) int {
	evs := tr.Events()
	for i := range evs {
		into[evs[i].Kind]++
	}
	tr.Reset()
	return len(evs)
}

// ---------------------------------------------------------------------------
// live-loopback: server <- relay <- client, all on the host loopback.

// The link the relay emulates and the server behind it (ISSUE 11).
const (
	liveRelayMbps   = 20.0
	liveRelayDelay  = 10 * time.Millisecond
	liveRelayQueue  = 256 << 10
	liveUplinkMbps  = 200.0
	livePingCount   = 3
	livePingTimeout = time.Second
)

type liveRig struct {
	srv     *swiftest.Server
	relay   *emu.Relay
	model   *swiftest.Model
	servers []swiftest.ServerAddr
}

// newLiveRig starts the server and the relay in front of it, and builds the
// two-mode model of examples/live-udp.
func newLiveRig(seed int64) (*liveRig, error) {
	model, err := swiftest.NewModel(
		swiftest.ModelComponent{Weight: 0.6, Mu: 12, Sigma: 2},
		swiftest.ModelComponent{Weight: 0.4, Mu: 35, Sigma: 5},
	)
	if err != nil {
		return nil, fmt.Errorf("live model: %w", err)
	}
	srv, err := swiftest.NewServer("127.0.0.1:0", swiftest.ServerOptions{UplinkMbps: liveUplinkMbps})
	if err != nil {
		return nil, fmt.Errorf("live server: %w", err)
	}
	relay, err := emu.NewRelay(emu.Config{
		Target:     srv.Addr(),
		RateMbps:   liveRelayMbps,
		Delay:      liveRelayDelay,
		QueueBytes: liveRelayQueue,
		Seed:       seed,
	})
	if err != nil {
		return nil, errors.Join(fmt.Errorf("live relay: %w", err), srv.Close())
	}
	return &liveRig{
		srv:     srv,
		relay:   relay,
		model:   model,
		servers: []swiftest.ServerAddr{{Addr: relay.Addr(), UplinkMbps: liveUplinkMbps}},
	}, nil
}

func (r *liveRig) close() error {
	return errors.Join(r.relay.Close(), r.srv.Close())
}

// relayCounters reports what the relay let through and what it dropped.
func (r *liveRig) relayCounters() (deliveredMB float64, dropped float64) {
	return float64(r.relay.DeliveredBytes()) / 1e6, float64(r.relay.DroppedPackets())
}

// test is the product as a user meets it: one TestContext call.
func (r *liveRig) test(ctx context.Context, seed int64, maxDuration time.Duration) (testOutcome, error) {
	res, err := swiftest.TestContext(ctx, swiftest.TestOptions{
		Servers:     r.servers,
		Model:       r.model,
		MaxDuration: maxDuration,
		Seed:        seed,
	})
	return fromResult(res), err
}

// stagedResult is one live test taken apart at the layer boundaries.
type stagedResult struct {
	testID    uint64
	outcome   testOutcome
	start     time.Time
	selectDur time.Duration
	runStart  time.Time
	runDur    time.Duration
	reportDur time.Duration
	total     time.Duration
	probe     probeTimes
}

// stagedTest performs the steps of TestContext one by one — rank, open,
// run, finish — reading the clock between them. The engine is given the
// caller's trace and registry through its existing options and talks to the
// transport through a timedProbe.
func (r *liveRig) stagedTest(ctx context.Context, seed int64, maxDuration time.Duration,
	tr *eventTrace, reg *registry) (stagedResult, error) {
	pool := &transport.ServerPool{}
	for _, s := range r.servers {
		pool.Servers = append(pool.Servers, transport.PoolServer{Addr: s.Addr, UplinkMbps: s.UplinkMbps})
	}
	t0 := time.Now()
	out := stagedResult{start: t0}
	if err := pool.RankByLatencyContext(ctx, livePingCount, livePingTimeout); err != nil {
		return out, fmt.Errorf("staged live test: select: %w", err)
	}
	out.selectDur = time.Since(t0)

	udp, err := transport.NewUDPProbeContext(ctx, pool, rand.New(rand.NewSource(seed)))
	if err != nil {
		return out, fmt.Errorf("staged live test: probe: %w", err)
	}
	out.testID = udp.TestID()
	tp := &timedProbe{inner: udp}
	t2 := time.Now()
	res, runErr := core.RunContext(ctx, tp, core.Config{
		Model:       r.model,
		MaxDuration: maxDuration,
		Trace:       tr,
		Metrics:     core.NewEngineMetrics(reg),
	})
	t3 := time.Now()
	udp.Finish(res.Bandwidth, res.Duration)
	t4 := time.Now()
	out.outcome, out.probe = fromCore(res), tp.times
	out.runStart, out.runDur, out.reportDur, out.total = t2, t3.Sub(t2), t4.Sub(t3), t4.Sub(t0)
	if runErr != nil {
		return out, fmt.Errorf("staged live test: run: %w", runErr)
	}
	if lost := tp.ServersLost(); lost > 0 {
		return out, fmt.Errorf("staged live test: %d server session(s) declared lost", lost)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// server-saturate: one transport server, two UDP probe clients.

const saturateUplinkMbps = 100000.0

// datagramBytes is the probe datagram size on the wire; an op of
// server-saturate is one of them delivered.
const datagramBytes = transport.DatagramSize

type saturateServer struct {
	srv *transport.Server
	reg *registry
}

// newSaturateServer starts a server with an uplink no rung can reach; reg
// may be nil (tracing off).
func newSaturateServer(reg *registry) (*saturateServer, error) {
	srv, err := transport.NewServer("127.0.0.1:0", transport.ServerConfig{
		UplinkMbps: saturateUplinkMbps,
		Metrics:    reg,
	})
	if err != nil {
		return nil, fmt.Errorf("saturate server: %w", err)
	}
	return &saturateServer{srv: srv, reg: reg}, nil
}

func (s *saturateServer) close() error { return s.srv.Close() }

func (s *saturateServer) bytesSent() int64 { return s.srv.BytesSent() }

// saturateClient is one probe session held open at a fixed rate.
type saturateClient struct {
	udp *transport.UDPProbe
}

// openClient dials the server and asks it to pace at mbps; the first
// SetRate is the handshake.
func (s *saturateServer) openClient(ctx context.Context, seed int64, mbps float64) (*saturateClient, error) {
	pool := &transport.ServerPool{Servers: []transport.PoolServer{
		{Addr: s.srv.Addr().String(), UplinkMbps: saturateUplinkMbps},
	}}
	udp, err := transport.NewUDPProbeContext(ctx, pool, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, fmt.Errorf("saturate client: %w", err)
	}
	if err := udp.SetRate(mbps); err != nil {
		udp.Finish(0, 0)
		return nil, fmt.Errorf("saturate client: opening at %g Mbps: %w", mbps, err)
	}
	return &saturateClient{udp: udp}, nil
}

// nextSample waits out one 50 ms window; ok is false once the probe can
// deliver no more (context done, server declared lost).
func (c *saturateClient) nextSample() (mbps float64, ok bool) { return c.udp.NextSample() }

func (c *saturateClient) receivedMB() float64 { return c.udp.DataMB() }

func (c *saturateClient) lost() int { return c.udp.ServersLost() }

func (c *saturateClient) finish(mbps float64, d time.Duration) { c.udp.Finish(mbps, d) }

// wirePath names the syscall path the server's sockets take on this host,
// found the way transport.NewServer finds it: on a socket of our own.
func wirePath() (string, error) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return "", fmt.Errorf("wire path: %w", err)
	}
	defer conn.Close()
	if !batchio.Batched(batchio.New(conn, batchio.ModeAuto)) {
		return "fallback", nil
	}
	if batchio.SetSegmentSize(conn, transport.DatagramSize) == nil {
		return "batched+gso", nil
	}
	return "batched", nil
}

// ---------------------------------------------------------------------------
// sim-static: SimulateTestContext on drawn static links.

var (
	simTechs    = [...]swiftest.Tech{swiftest.Tech4G, swiftest.Tech5G, swiftest.TechWiFi}
	simPolicies = [...]string{"crossing", "crossing", "fastbts", "earlystop"}
)

// simInput is one generated test: the link and which model and policy run
// on it. capacity repeats link.CapacityMbps — what the emulator applies, and
// so what the estimate is scored against.
type simInput struct {
	link     swiftest.LinkConfig
	tech     int
	policy   int
	capacity float64
}

type simRig struct {
	models   [len(simTechs)]*swiftest.Model
	policies [len(simPolicies)]swiftest.TerminationPolicy
}

func newSimRig() (*simRig, error) {
	var rig simRig
	for i, tech := range simTechs {
		m, err := swiftest.DefaultModel(tech)
		if err != nil {
			return nil, fmt.Errorf("sim model %v: %w", tech, err)
		}
		rig.models[i] = m
	}
	for i, name := range simPolicies {
		p, err := swiftest.ParseTerminationPolicy(name)
		if err != nil {
			return nil, fmt.Errorf("sim policy: %w", err)
		}
		rig.policies[i] = p
	}
	return &rig, nil
}

// draw generates n inputs from seed: technology round-robin, policy by
// i%4, link parameters from exper.Scenario.Draw with shaping off so the
// configured capacity is the truth.
func (s *simRig) draw(seed int64, n int) ([]simInput, error) {
	rng := rand.New(rand.NewSource(seed))
	in := make([]simInput, n)
	for i := range in {
		t := i % len(simTechs)
		d, err := exper.Scenario{Tech: simTechs[t], Model: s.models[t]}.Draw(rng)
		if err != nil {
			return nil, fmt.Errorf("sim draw: %w", err)
		}
		in[i] = simInput{
			link: swiftest.LinkConfig{
				CapacityMbps: d.CapacityMbps,
				RTT:          d.RTT,
				Fluctuation:  d.Fluctuation,
				LossRate:     d.Config.LossRate,
				Seed:         rng.Int63(),
			},
			tech:     t,
			policy:   i % len(simPolicies),
			capacity: d.CapacityMbps,
		}
	}
	return in, nil
}

func (s *simRig) test(ctx context.Context, in simInput) (testOutcome, error) {
	res, err := swiftest.SimulateTestContext(ctx, in.link, s.models[in.tech], swiftest.SimulateOptions{
		SessionOptions: swiftest.SessionOptions{Terminate: s.policies[in.policy]},
	})
	return fromResult(res), err
}

// stagedTest is test with the engine's probe wrapped, so time inside the
// link emulator can be told from time inside the engine. It must return
// what test returns; the workload compares digests to hold it to that.
func (s *simRig) stagedTest(ctx context.Context, in simInput, tr *eventTrace, reg *registry) (testOutcome, probeTimes, error) {
	link, err := linksim.New(linksim.Config{
		CapacityMbps: in.link.CapacityMbps,
		RTT:          in.link.RTT,
		Fluctuation:  in.link.Fluctuation,
		LossRate:     in.link.LossRate,
	}, in.link.Seed)
	if err != nil {
		return testOutcome{}, probeTimes{}, fmt.Errorf("staged sim test: %w", err)
	}
	sim := core.NewSimProbe(link)
	defer sim.Close()
	tp := &timedProbe{inner: sim}
	res, err := core.RunContext(ctx, tp, core.Config{
		Model:     s.models[in.tech],
		Trace:     tr,
		Metrics:   core.NewEngineMetrics(reg),
		Terminate: s.policies[in.policy],
	})
	if err != nil {
		return fromCore(res), tp.times, fmt.Errorf("staged sim test: %w", err)
	}
	return fromCore(res), tp.times, nil
}

// ---------------------------------------------------------------------------
// campaign-ran: exper.RunCampaign over the RAN profile library.

func profileNames() []string { return ranprofile.Names() }

var campaignAlgorithms = []string{"swiftest", "fastbts", "fast", "earlystop"}

// campaignCells is the cell count a full report must have.
func campaignCells(profiles int) int {
	return profiles * len(campaignAlgorithms) * len(exper.BuiltinFaultPlans())
}

// runCampaign returns the report's cell count and its JSON bytes — the only
// two things the benchmark takes from a CampaignReport.
func runCampaign(ctx context.Context, profiles []string, runs int, seed int64, workers int, reg *registry) (int, []byte, error) {
	rep, err := exper.RunCampaign(ctx, exper.CampaignConfig{
		Profiles:   profiles,
		Algorithms: campaignAlgorithms,
		FaultPlans: exper.BuiltinFaultPlans(),
		Runs:       runs,
		Seed:       seed,
		Workers:    workers,
		Registry:   reg,
	})
	if err != nil {
		return 0, nil, fmt.Errorf("campaign: %w", err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		return 0, nil, fmt.Errorf("campaign report: %w", err)
	}
	return len(rep.Scenarios), buf.Bytes(), nil
}

// campaignSummary reads the two informational figures out of the report
// bytes. A report that no longer carries them reads 0, it does not fail.
func campaignSummary(report []byte) (meanAccuracyPct, convergedShare float64) {
	var doc struct {
		Scenarios []struct {
			Runs         int     `json:"runs"`
			MeanAccuracy float64 `json:"mean_accuracy"`
			Converged    int     `json:"converged"`
		} `json:"scenarios"`
	}
	if json.Unmarshal(report, &doc) != nil || len(doc.Scenarios) == 0 {
		return 0, 0
	}
	var acc float64
	var conv, runs int
	for _, s := range doc.Scenarios {
		acc += s.MeanAccuracy
		conv += s.Converged
		runs += s.Runs
	}
	if runs > 0 {
		convergedShare = float64(conv) / float64(runs)
	}
	return 100 * acc / float64(len(doc.Scenarios)), convergedShare
}

const (
	campaignStateDwellSeries = "swiftest_link_state_dwell_seconds"
	campaignHandoverSeries   = "swiftest_link_handovers_total"
)

// ---------------------------------------------------------------------------
// fleet-day: deploy plan once, then loadgen days against it.

type fleetPlan struct {
	plan       deploy.Plan
	placements []deploy.Placement
}

// planFleet solves and places the fleet every day runs against.
func planFleet() (fleetPlan, error) {
	plan, err := deploy.PlanPurchase(deploy.SyntheticCatalogue(), 5500, 0.075, deploy.PlanOptions{MinServers: 3})
	if err != nil {
		return fleetPlan{}, fmt.Errorf("fleet plan: %w", err)
	}
	placements, err := deploy.PlaceServers(plan, nil)
	if err != nil {
		return fleetPlan{}, fmt.Errorf("fleet placement: %w", err)
	}
	return fleetPlan{plan: plan, placements: placements}, nil
}

// dayReport is what the benchmark keeps of a loadgen.Report.
type dayReport struct {
	started, completed, rejected, abandoned, failovers, peak int
	digest                                                   string
}

func (p fleetPlan) day(ctx context.Context, virtual time.Duration, peak int, seed int64, workers int, reg *registry) (dayReport, error) {
	rep, err := loadgen.Run(ctx, loadgen.Config{
		Plan:           p.plan,
		Placements:     p.placements,
		Duration:       virtual,
		PeakConcurrent: peak,
		PerTestMbps:    1,
		Workers:        workers,
		Seed:           seed,
		BurstProb:      -1,
		Metrics:        reg,
	})
	if err != nil {
		return dayReport{}, fmt.Errorf("fleet day: %w", err)
	}
	return dayReport{
		started:   rep.TestsStarted,
		completed: rep.TestsCompleted,
		rejected:  rep.TestsRejected,
		abandoned: rep.TestsAbandoned,
		failovers: rep.Failovers,
		peak:      rep.PeakConcurrent,
		digest:    rep.AssignmentDigest,
	}, nil
}

// dispatchLoop admits and releases n clients on a fresh dispatcher over the
// plan. Virtual time moves 5 ms per client so the token buckets refill, and
// every server beats once per 250 ms so none is declared dead.
func (p fleetPlan) dispatchLoop(seed int64, n int) error {
	d, err := fleet.NewDispatcher(p.plan, p.placements, fleet.Config{
		ActivatePlanned: true,
		PerTestMbps:     1,
		Seed:            seed,
	})
	if err != nil {
		return fmt.Errorf("dispatch loop: %w", err)
	}
	reg := d.Registry()
	servers := len(reg.Servers())
	var at time.Duration
	for i := 0; i < n; i++ {
		at += 5 * time.Millisecond
		if i%50 == 0 {
			for id := 0; id < servers; id++ {
				if err := reg.Heartbeat(id, at); err != nil {
					return fmt.Errorf("dispatch loop: %w", err)
				}
			}
			reg.Advance(at)
		}
		a, err := d.Dispatch(fleet.ClientInfo{Key: uint64(i), Domain: deploy.IXPDomains[i%len(deploy.IXPDomains)]}, at)
		if err != nil {
			return fmt.Errorf("dispatch loop: client %d: %w", i, err)
		}
		reg.Release(a.Lease, at)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Stand-alone layer loops: n calls straight into one layer's exported
// functions. The caller times the loop; sink keeps the compiler from
// discarding the work.

var sink float64

type batchPair struct {
	tx, rx   *net.UDPConn
	txc, rxc batchio.Conn
	out, in  []batchio.Message
}

const batchBurst = 64 // datagrams per burst: under the default socket buffer, so none is dropped

// newBatchPair connects two loopback sockets through batchio, on the
// platform's path or the portable one.
func newBatchPair(fallback bool) (*batchPair, error) {
	mode := batchio.ModeAuto
	if fallback {
		mode = batchio.ModeFallback
	}
	loop := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}
	rx, err := net.ListenUDP("udp", loop)
	if err != nil {
		return nil, fmt.Errorf("batch pair: %w", err)
	}
	tx, err := net.ListenUDP("udp", loop)
	if err != nil {
		return nil, errors.Join(fmt.Errorf("batch pair: %w", err), rx.Close())
	}
	p := &batchPair{tx: tx, rx: rx, txc: batchio.New(tx, mode), rxc: batchio.New(rx, mode)}
	dst := rx.LocalAddr().(*net.UDPAddr)
	payload := make([]byte, datagramBytes)
	for i := 0; i < batchBurst; i++ {
		p.out = append(p.out, batchio.Message{Buf: payload, Addr: dst})
		p.in = append(p.in, batchio.Message{Buf: make([]byte, 2048)})
	}
	return p, nil
}

func (p *batchPair) close() error { return errors.Join(p.tx.Close(), p.rx.Close()) }

// send hands one burst to the kernel.
func (p *batchPair) send() (int, error) {
	n, err := p.txc.SendBatch(p.out)
	if err != nil {
		return n, fmt.Errorf("batch send: %w", err)
	}
	return n, nil
}

// drain receives until want datagrams have arrived or a second has passed.
func (p *batchPair) drain(want int) (int, error) {
	if err := p.rx.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
		return 0, fmt.Errorf("batch drain: %w", err)
	}
	got := 0
	for got < want {
		n, err := p.rxc.RecvBatch(p.in)
		if err != nil {
			return got, fmt.Errorf("batch drain after %d of %d: %w", got, want, err)
		}
		got += n
	}
	return got, nil
}

func wireDataEncode(n int) {
	buf := make([]byte, transport.DatagramSize)
	d := wire.Data2{SessionID: 0x1234, SentNS: 1}
	for i := 0; i < n; i++ {
		d.Seq = uint32(i)
		d.EncodeHeader(buf)
	}
	sink += float64(buf[15])
}

func wireDataDecode(n int) error {
	d := wire.Data2{SessionID: 0x1234, Seq: 7, SentNS: 1, Payload: make([]byte, transport.DatagramSize-wire.DataHeaderLen)}
	buf := d.AppendTo(nil)
	var out wire.Data2
	for i := 0; i < n; i++ {
		if err := out.Decode(buf); err != nil {
			return fmt.Errorf("wire data decode: %w", err)
		}
	}
	sink += float64(out.Seq)
	return nil
}

// wireControlRoundtrip encodes and decodes the three control frames a v2
// session cannot do without — Hello, Setup, Report — into a reused buffer.
func wireControlRoundtrip(n int) error {
	buf := make([]byte, 0, wire.HelloLen+wire.SetupLen+wire.ReportLen)
	hello := wire.Hello{MinVersion: wire.Version2, MaxVersion: wire.Version2, Caps: wire.ServerCaps, Nonce: 9}
	setup := wire.Setup{SessionID: 0x1234, RateKbps: 20000, Token: wire.MintToken(1, 2, 3, 0)}
	report := wire.Report{SessionID: 0x1234, SentBytes: 1 << 20, SentDatagrams: 900}
	var h wire.Hello
	var s wire.Setup
	var r wire.Report
	for i := 0; i < n; i++ {
		report.Seq = uint32(i)
		b := hello.AppendTo(buf[:0])
		if err := h.Decode(b); err != nil {
			return fmt.Errorf("wire control: %w", err)
		}
		b = setup.AppendTo(buf[:0])
		if err := s.Decode(b); err != nil {
			return fmt.Errorf("wire control: %w", err)
		}
		b = report.AppendTo(buf[:0])
		if err := r.Decode(b); err != nil {
			return fmt.Errorf("wire control: %w", err)
		}
	}
	sink += float64(r.Seq) + float64(s.RateKbps) + float64(h.Nonce)
	return nil
}

func wireTokenVerify(n int) error {
	const key = 0x5eed
	tok := wire.MintToken(key, 3, 77, 0)
	for i := 0; i < n; i++ {
		if !tok.Verify(key) {
			return errors.New("wire token: a token minted under the key did not verify")
		}
	}
	return nil
}

// trajectory is a recorded sample stream for the decide/estimate loops.
type trajectory struct {
	samples []float64
	points  []estimate.TrajectoryPoint
}

// recordTrajectory takes n samples off a noisy static link probed above its
// capacity — the stream a test that rides to the deadline hands its policy.
func recordTrajectory(seed int64, n int) (trajectory, error) {
	link, err := linksim.New(linksim.Config{CapacityMbps: 100, RTT: 40 * time.Millisecond, Fluctuation: 0.05}, seed)
	if err != nil {
		return trajectory{}, fmt.Errorf("trajectory: %w", err)
	}
	p := core.NewSimProbe(link)
	defer p.Close()
	if err := p.SetRate(125); err != nil {
		return trajectory{}, fmt.Errorf("trajectory: %w", err)
	}
	var t trajectory
	for i := 0; i < n; i++ {
		s, _ := p.NextSample()
		rtt, _ := p.SampleRTT()
		t.samples = append(t.samples, s)
		t.points = append(t.points, estimate.TrajectoryPoint{At: p.Elapsed(), Mbps: s, RTT: rtt})
	}
	return t, nil
}

// decideLoop replays what the engine asks of a policy over one test of n
// samples: Decide on every prefix 1..n. reps tests.
func decideLoop(policy string, t trajectory, n, reps int) error {
	p, err := swiftest.ParseTerminationPolicy(policy)
	if err != nil {
		return fmt.Errorf("decide loop: %w", err)
	}
	stops := 0
	for r := 0; r < reps; r++ {
		for k := 1; k <= n; k++ {
			if p.Decide(t.samples[:k], t.points[:k], t.points[k-1].At).Stop {
				stops++
			}
		}
	}
	sink += float64(stops)
	return nil
}

func estimateComputeLoop(t trajectory, n, reps int) {
	for r := 0; r < reps; r++ {
		sink += estimate.Compute(t.samples[:n], t.samples[n-1]).TrimmedMeanMbps
	}
}

func estimateClassifyLoop(t trajectory, n, reps int) {
	for r := 0; r < reps; r++ {
		sink += float64(estimate.ClassifyBDP(t.points[:n]))
	}
}

func earlystopFeaturizeLoop(t trajectory, reps int) {
	var f [earlystop.NFeatures]float64
	for r := 0; r < reps; r++ {
		earlystop.Featurize(t.samples, t.points, &f)
	}
	sink += f[0]
}

func earlystopPredictLoop(t trajectory, reps int) {
	var f [earlystop.NFeatures]float64
	earlystop.Featurize(t.samples, t.points, &f)
	m := earlystop.Default()
	for r := 0; r < reps; r++ {
		sink += m.Predict(&f)
	}
}

// hookedProfile is the RAN profile the hooked-link loops run on.
const hookedProfile = "5g-drive"

func profiledLink(seed int64) (*linksim.Link, *ranprofile.Machine, error) {
	p, err := ranprofile.Get(hookedProfile)
	if err != nil {
		return nil, nil, fmt.Errorf("profiled link: %w", err)
	}
	m := ranprofile.NewMachine(p, seed, ranprofile.MachineOptions{})
	link, err := linksim.New(linksim.Config{StateHook: m.Hook()}, seed)
	if err != nil {
		return nil, nil, fmt.Errorf("profiled link: %w", err)
	}
	return link, m, nil
}

// advanceLoop ticks a link carrying one saturating flow; hooked installs the
// profile state machine as the link's StateHook.
func advanceLoop(seed int64, hooked bool, ticks int) error {
	var link *linksim.Link
	var err error
	if hooked {
		link, _, err = profiledLink(seed)
	} else {
		link, err = linksim.New(linksim.Config{CapacityMbps: 100, RTT: 40 * time.Millisecond, Fluctuation: 0.01}, seed)
	}
	if err != nil {
		return fmt.Errorf("advance loop: %w", err)
	}
	flow := link.NewFlow()
	defer flow.Close()
	flow.SetOffered(125)
	for i := 0; i < ticks; i++ {
		link.Advance()
	}
	sink += flow.DeliveredBytes()
	return nil
}

// hookLoop calls the profile state machine once per emulator tick, as the
// link does.
func hookLoop(seed int64, ticks int) error {
	_, m, err := profiledLink(seed)
	if err != nil {
		return fmt.Errorf("hook loop: %w", err)
	}
	hook := m.Hook()
	var at time.Duration
	for i := 0; i < ticks; i++ {
		sink += hook(at).CapacityMbps
		at += linksim.Tick
	}
	return nil
}

// baselineLoop runs one baseline prober reps times, each on a fresh
// profiled link, as a campaign run does.
func baselineLoop(name string, seed int64, reps int) error {
	var prober baseline.Prober
	switch name {
	case "btsapp":
		prober = &baseline.BTSApp{}
	case "fast":
		prober = &baseline.FAST{}
	case "fastbts":
		prober = &baseline.FastBTS{}
	default:
		return fmt.Errorf("baseline loop: unknown prober %q", name)
	}
	for r := 0; r < reps; r++ {
		link, _, err := profiledLink(seed + int64(r))
		if err != nil {
			return fmt.Errorf("baseline loop: %w", err)
		}
		sink += prober.Run(link).Result
	}
	return nil
}
