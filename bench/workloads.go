package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"runtime"
	"sync"
	"time"
)

// workload is one named set of inputs. why is the sentence BENCHMARK.json
// and README.md carry.
type workload struct {
	name  string
	why   string
	setup func(ctx context.Context, cfg *runConfig) (instance, error)
}

// instance is a workload set up and ready to be measured.
type instance interface {
	// measure runs the timed region and records what it saw. An error is a
	// broken instrument; a wrong answer from the program is a violation on
	// the recorder.
	measure(ctx context.Context, cfg *runConfig, rec *recorder) error
	close() error
}

var workloads = []workload{
	{"live-loopback", "the product as a user meets it: one server behind a 20 Mbit/s relay, tests back to back; clock-bound, so CPU optimisations must show no change", setupLive},
	{"server-saturate", "per-datagram cost of the server send path and client receive path at fixed offered rates, the top one saturating both cores", setupSaturate},
	{"sim-static", "virtual time on static links: core, linksim, estimate and earlystop do all the work and transport none, so engine per-sample cost shows undiluted", setupSim},
	{"campaign-ran", "RAN-profile campaign across workers: hooked links, baselines and a truth flood per run dilute the engine, and it is the only parallel virtual-time path", setupCampaign},
	{"fleet-day", "control plane: fleet dispatch and registry, loadgen and many-flow linksim over one planned fleet, a virtual day at a time", setupFleet},
}

// batchStat is one timed batch of a closed loop.
type batchStat struct {
	ops  float64
	wall time.Duration
	cpu  time.Duration
}

// runBatches repeats one until d has passed, then records the throughput
// rows. one times its own work, so input generation stays outside. In a
// traced run odd batches run with instrumentation on and even ones without,
// on the same inputs (runConfig.batchSeed), which is where the tracing
// overhead comes from; a traced run makes at least two of each.
func runBatches(ctx context.Context, cfg *runConfig, d time.Duration, rec *recorder, one func(b int, traced bool) (batchStat, error)) error {
	least := 1
	if cfg.traced {
		least = 4
	}
	// plain and traced are batch rates; held is the memory the runtime holds
	// from the OS when an untraced batch ends.
	var plain, traced, held []float64
	start := time.Now()
	for b := 0; b < least || time.Since(start) < d; b++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("batch %d: %w", b, err)
		}
		// Each batch starts from a collected heap, as each testing.B run
		// does, so its time does not depend on when the collector last ran.
		runtime.GC()
		instrumented := cfg.traced && b%2 == 1
		st, err := one(b, instrumented)
		if err != nil {
			return fmt.Errorf("batch %d: %w", b, err)
		}
		rate := st.ops / st.wall.Seconds()
		if instrumented {
			traced = append(traced, rate)
			continue
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		plain = append(plain, rate)
		held = append(held, float64(ms.Sys-ms.HeapReleased)/(1<<20))
		rec.ops += st.ops
		rec.cpu += st.cpu
	}
	// Medians over batches, so one batch that shared a core with something
	// else does not move the row.
	rec.opsPerS = median(plain)
	rec.heldMB = median(held)
	rec.note("detail batch_ops_per_s %s", spread(plain))
	if cfg.traced {
		rec.layer["obs.trace_overhead_pct"] = 100 * (1 - median(traced)/median(plain))
		rec.note("detail traced_batch_ops_per_s %s", spread(traced))
	}
	return nil
}

func digestHex(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil))[:16] }

// ---------------------------------------------------------------------------

type liveInstance struct {
	rig *liveRig
	reg *registry
}

func setupLive(ctx context.Context, cfg *runConfig) (instance, error) {
	rig, err := newLiveRig(cfg.seed)
	if err != nil {
		return nil, err
	}
	// One short test proves the path end to end and lets lazy set-up finish
	// before the timed region.
	if _, err := rig.test(ctx, nonZero(cfg.setupSeed()), cfg.size.liveWarm); err != nil {
		rig.close()
		return nil, fmt.Errorf("live warm-up: %w", err)
	}
	return &liveInstance{rig: rig, reg: newRegistry()}, nil
}

func (l *liveInstance) close() error { return l.rig.close() }

// nonZero keeps a test seed off zero, which TestOptions reads as "take one
// from the clock".
func nonZero(seed int64) int64 {
	if seed == 0 {
		return 1
	}
	return seed
}

func (l *liveInstance) measure(ctx context.Context, cfg *runConfig, rec *recorder) error {
	var wallMs, cpuMs, dataMB, relErr []float64
	var staged []stagedResult
	var converged, events int
	err := runBatches(ctx, cfg, cfg.duration(), rec, func(b int, traced bool) (batchStat, error) {
		seed := nonZero(cfg.batchSeed(b))
		rec.attempted++
		var out testOutcome
		var err error
		c0, t0 := cpuTime(), time.Now()
		if traced {
			tr := newEventTrace(0)
			var st stagedResult
			st, err = l.rig.stagedTest(ctx, seed, cfg.size.liveMax, tr, l.reg)
			out = st.outcome
			if err == nil {
				staged = append(staged, st)
				events += tr.Len()
			}
		} else {
			out, err = l.rig.test(ctx, seed, cfg.size.liveMax)
		}
		st := batchStat{ops: 1, wall: time.Since(t0), cpu: cpuTime() - c0}
		if err != nil {
			rec.fail("live test %d: %v", b, err)
			return st, nil
		}
		dev := math.Abs(out.mbps-liveRelayMbps) / liveRelayMbps
		if dev > cfg.size.liveTolerance {
			rec.fail("live test %d: estimate %.2f Mbit/s is %.0f%% from the relay's %g", b, out.mbps, 100*dev, liveRelayMbps)
		}
		wallMs = append(wallMs, float64(st.wall)/float64(time.Millisecond))
		cpuMs = append(cpuMs, float64(st.cpu)/float64(time.Millisecond))
		dataMB = append(dataMB, out.dataMB)
		relErr = append(relErr, dev)
		if out.converged {
			converged++
		}
		return st, nil
	})
	if err != nil {
		return err
	}
	rec.quality = 100 * (1 - median(relErr))
	rec.note("detail live_test_ms %s", spread(wallMs))
	rec.note("detail live_cpu_ms %s", spread(cpuMs))
	rec.note("detail live_data_mb %s", spread(dataMB))
	if !cfg.traced {
		return nil
	}
	stageRows(staged, rec)
	var cv, wait []float64
	for _, st := range staged {
		tail := st.outcome.samples
		if len(tail) > 20 {
			tail = tail[len(tail)-20:]
		}
		cv = append(cv, cvPct(tail))
		wait = append(wait, st.probe.nextSample.Seconds()/st.runDur.Seconds())
	}
	rec.layer["swiftest.live_data_mb_p50"] = median(dataMB)
	rec.layer["transport.sample_cv_pct"] = median(cv)
	rec.layer["transport.sample_wait_share"] = median(wait)
	if n := len(wallMs); n > 0 {
		rec.layer["core.live_converged_share"] = float64(converged) / float64(n)
	}
	rec.layer["emu.relay_delivered_mb"], rec.layer["emu.relay_dropped"] = l.rig.relayCounters()
	if n := len(staged); n > 0 {
		rec.layer["obs.trace_events_per_test"] = float64(events) / float64(n)
	}
	return nil
}

// stageRows fills the live stage budget from staged tests and logs their
// spans: select -> handshake -> first sample -> report is the blocking path
// of a live test, and everything of it that is not probing is overhead.
func stageRows(staged []stagedResult, rec *recorder) {
	var sel, hs, first, report, overhead []float64
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	for _, st := range staged {
		sel = append(sel, ms(st.selectDur))
		hs = append(hs, ms(st.probe.handshake))
		first = append(first, ms(st.probe.firstSample))
		report = append(report, ms(st.reportDur))
		overhead = append(overhead, ms(st.total-st.outcome.duration))
		rec.spans.add(st.testID, "swiftest.test", "", st.start, st.total)
		rec.spans.add(st.testID, "transport.select", "swiftest.test", st.start, st.selectDur)
		rec.spans.add(st.testID, "core.run", "swiftest.test", st.runStart, st.runDur)
		rec.spans.add(st.testID, "transport.handshake", "core.run", st.runStart, st.probe.handshake)
		rec.spans.add(st.testID, "transport.set_rate(sum)", "core.run", st.runStart, st.probe.setRate)
		rec.spans.add(st.testID, "transport.next_sample(sum)", "core.run", st.runStart, st.probe.nextSample)
		rec.spans.add(st.testID, "transport.report", "swiftest.test", st.runStart.Add(st.runDur), st.reportDur)
	}
	rec.layer["transport.select_ms_p50"] = median(sel)
	rec.layer["transport.handshake_ms_p50"] = median(hs)
	rec.layer["transport.first_sample_ms_p50"] = median(first)
	rec.layer["transport.report_ms_p50"] = median(report)
	rec.layer["swiftest.live_overhead_ms_p50"] = median(overhead)
	rec.note("detail live_stage_tests n=%d", len(staged))
}

// ---------------------------------------------------------------------------

// rung is one fixed offered rate of server-saturate: two clients at
// clientMbps each for share of the run's seconds.
type rung struct {
	name       string
	clientMbps float64
	share      float64
}

var saturateRungs = []rung{
	{"r400", 200, 0.05},    // far below saturation: the floor
	{"r1600", 800, 0.25},   // unsaturated: measures pacing fidelity
	{"r12800", 6400, 0.70}, // saturates both cores: measures per-datagram cost
}

const (
	pacedRung = "r1600"
	// saturateClients never exceeds nproc on the smallest box the ledger is
	// kept on (2 vCPU).
	saturateClients = 2
)

type saturateInstance struct {
	plain  *saturateServer
	traced *saturateServer // nil unless the run is traced
}

func setupSaturate(ctx context.Context, cfg *runConfig) (instance, error) {
	plain, err := newSaturateServer(nil)
	if err != nil {
		return nil, err
	}
	s := &saturateInstance{plain: plain}
	if cfg.traced {
		if s.traced, err = newSaturateServer(newRegistry()); err != nil {
			s.close()
			return nil, err
		}
	}
	// A short slow rung opens and closes sessions once before the timed
	// region.
	warm := newRecorder(false, nil)
	if _, err := runRung(ctx, plain, rung{"warm", 25 * cfg.size.rungScale, 0}, cfg.size.saturateWarm, cfg.setupSeed(), warm); err != nil {
		s.close()
		return nil, fmt.Errorf("saturate warm-up: %w", err)
	}
	if warm.failed > 0 {
		s.close()
		return nil, fmt.Errorf("saturate warm-up: %v", warm.violations)
	}
	return s, nil
}

func (s *saturateInstance) close() error {
	err := s.plain.close()
	if s.traced != nil {
		if terr := s.traced.close(); err == nil {
			err = terr
		}
	}
	return err
}

// rungStat is what one rung delivered.
type rungStat struct {
	offeredMbps    float64
	goodputMbps    float64 // received by both clients / wall
	sentMbps       float64 // Server.BytesSent / wall
	deliveredBytes float64
	sentBytes      float64
	wall           time.Duration
	user, sys      time.Duration
}

// runRung opens the clients, holds them at the rung's rate for d, and closes
// them. A client that cannot open, or whose server is declared lost, is a
// failed op.
func runRung(ctx context.Context, srv *saturateServer, r rung, d time.Duration, seed int64, rec *recorder) (rungStat, error) {
	st := rungStat{offeredMbps: saturateClients * r.clientMbps}
	var clients []*saturateClient
	for i := 0; i < saturateClients; i++ {
		rec.attempted++
		c, err := srv.openClient(ctx, seed+int64(i), r.clientMbps)
		if err != nil {
			rec.fail("saturate %s client %d: %v", r.name, i, err)
			continue
		}
		clients = append(clients, c)
	}
	if len(clients) == 0 {
		return st, nil
	}
	received := func() float64 {
		var mb float64
		for _, c := range clients {
			mb += c.receivedMB()
		}
		return mb * 1e6
	}
	t0 := time.Now()
	user0, sys0 := cpuTimes()
	rx0, tx0 := received(), srv.bytesSent()
	deadline := t0.Add(d)
	var wg sync.WaitGroup
	stopped := make([]bool, len(clients))
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if _, ok := c.nextSample(); !ok {
					stopped[i] = true
					return
				}
			}
		}()
	}
	wg.Wait()
	st.wall = time.Since(t0)
	user1, sys1 := cpuTimes()
	st.user, st.sys = user1-user0, sys1-sys0
	st.deliveredBytes = received() - rx0
	st.sentBytes = float64(srv.bytesSent() - tx0)
	st.goodputMbps = st.deliveredBytes * 8 / st.wall.Seconds() / 1e6
	st.sentMbps = st.sentBytes * 8 / st.wall.Seconds() / 1e6
	for i, c := range clients {
		switch {
		case c.lost() > 0:
			rec.fail("saturate %s client %d: server declared lost", r.name, i)
		case stopped[i] && ctx.Err() == nil:
			rec.fail("saturate %s client %d: probe stopped producing samples", r.name, i)
		}
		c.finish(st.goodputMbps/float64(len(clients)), st.wall)
	}
	if err := ctx.Err(); err != nil {
		return st, fmt.Errorf("saturate %s: %w", r.name, err)
	}
	return st, nil
}

func rateErrorPct(st rungStat) float64 {
	return 100 * math.Abs(st.sentMbps-st.offeredMbps) / st.offeredMbps
}

func (s *saturateInstance) measure(ctx context.Context, cfg *runConfig, rec *recorder) error {
	srv := s.plain
	if cfg.traced {
		srv = s.traced
	}
	// The rungs below saturation run once each.
	for i, r := range saturateRungs[:len(saturateRungs)-1] {
		r.clientMbps *= cfg.size.rungScale
		t0 := time.Now()
		st, err := runRung(ctx, srv, r, time.Duration(r.share*float64(cfg.duration())), cfg.seed+int64(10*i), rec)
		if err != nil {
			return err
		}
		rec.spans.add(uint64(i), "transport.rung."+r.name, "", t0, time.Since(t0))
		rec.note("detail %s offered=%.0f sent=%.1f goodput=%.1f Mbit/s over %.2fs", r.name, st.offeredMbps, st.sentMbps, st.goodputMbps, st.wall.Seconds())
		if cfg.traced {
			rec.layer["transport.goodput_mbps."+r.name] = st.goodputMbps
			rec.layer["transport.rate_error_pct."+r.name] = rateErrorPct(st)
		}
		if r.name == pacedRung {
			rec.quality = 100 - rateErrorPct(st)
		}
	}

	// The top rung runs as a closed loop of short stretches, each with fresh
	// sessions: which goroutine shares a core with which is settled anew
	// per stretch, and the median stretch does not depend on one draw. An op
	// is one datagram delivered to a client.
	top := saturateRungs[len(saturateRungs)-1]
	top.clientMbps *= cfg.size.rungScale
	var traced rungStat // sum over the instrumented stretches
	err := runBatches(ctx, cfg, time.Duration(top.share*float64(cfg.duration())), rec, func(b int, instrumented bool) (batchStat, error) {
		on := s.plain
		if instrumented {
			on = s.traced
		}
		t0 := time.Now()
		st, err := runRung(ctx, on, top, cfg.size.saturateStretch, cfg.seed+1000+int64(10*b), rec)
		if err != nil {
			return batchStat{}, err
		}
		rec.spans.add(uint64(1000+b), "transport.rung."+top.name, "", t0, time.Since(t0))
		if instrumented {
			traced.offeredMbps = st.offeredMbps
			traced.deliveredBytes += st.deliveredBytes
			traced.sentBytes += st.sentBytes
			traced.wall += st.wall
			traced.user += st.user
			traced.sys += st.sys
		}
		return batchStat{ops: st.deliveredBytes / datagramBytes, wall: st.wall, cpu: st.user + st.sys}, nil
	})
	if err != nil {
		return err
	}
	rec.note("detail %s goodput=%.1f Mbit/s (median stretch)", top.name, rec.opsPerS*datagramBytes*8/1e6)
	if !cfg.traced || traced.deliveredBytes == 0 {
		return nil
	}
	traced.goodputMbps = traced.deliveredBytes * 8 / traced.wall.Seconds() / 1e6
	traced.sentMbps = traced.sentBytes * 8 / traced.wall.Seconds() / 1e6
	gb := traced.deliveredBytes / 1e9
	rec.layer["transport.goodput_mbps."+top.name] = traced.goodputMbps
	rec.layer["transport.rate_error_pct."+top.name] = rateErrorPct(traced)
	rec.layer["transport.client_loss_pct"] = 100 * (1 - traced.deliveredBytes/traced.sentBytes)
	rec.layer["transport.cpu_user_s_per_gb"] = traced.user.Seconds() / gb
	rec.layer["transport.cpu_sys_s_per_gb"] = traced.sys.Seconds() / gb
	if batches := counterValue(srv.reg, "swiftest_server_send_batches_total"); batches > 0 {
		rec.layer["transport.datagrams_per_batch"] = counterValue(srv.reg, "swiftest_server_datagrams_sent_total") / batches
	}
	rec.layer["transport.send_errors"] = counterValue(srv.reg, "swiftest_server_send_errors_total")
	rec.layer["transport.rate_clamped"] = counterValue(srv.reg, "swiftest_server_rate_clamped_total")
	return nil
}

// ---------------------------------------------------------------------------

type simInstance struct {
	rig *simRig
	reg *registry
}

func setupSim(ctx context.Context, cfg *runConfig) (instance, error) {
	rig, err := newSimRig()
	if err != nil {
		return nil, err
	}
	s := &simInstance{rig: rig, reg: newRegistry()}
	// Same seed, same answers: the premise every digest below rests on.
	in, err := rig.draw(cfg.setupSeed(), cfg.size.simCheck)
	if err != nil {
		return nil, err
	}
	var digests [2]string
	for i := range digests {
		tot, err := s.runBatch(ctx, in, false, nil)
		if err != nil {
			return nil, fmt.Errorf("sim determinism check: %w", err)
		}
		digests[i] = digestHex(tot.digest)
	}
	if digests[0] != digests[1] {
		return nil, fmt.Errorf("sim determinism check: the same %d inputs gave digests %s and %s", len(in), digests[0], digests[1])
	}
	return s, nil
}

func (s *simInstance) close() error { return nil }

// simTotals accumulates one batch of emulated tests.
type simTotals struct {
	tests, failed int
	accuracy      float64 // sum of 1 - |estimate - capacity| / capacity
	virtualMs     float64 // sum of Result.Duration
	digest        hash.Hash
	firstFailure  string

	// traced batches only
	run, probe time.Duration
	events     int
	kinds      map[string]int
}

// simTraceCapacity holds the events of a few hundred tests; the trace is
// counted and emptied whenever the next test might not fit.
const (
	simTraceCapacity = 1 << 15
	simTestEventsMax = 512
)

func (s *simInstance) runBatch(ctx context.Context, in []simInput, traced bool, spans *spanLog) (simTotals, error) {
	tot := simTotals{digest: sha256.New(), kinds: map[string]int{}}
	var tr *eventTrace
	if traced {
		tr = newEventTrace(simTraceCapacity)
	}
	var word [16]byte
	for i, x := range in {
		var out testOutcome
		var err error
		if traced {
			if tr.Len() > simTraceCapacity-simTestEventsMax {
				tot.events += countEvents(tr, tot.kinds)
			}
			var pt probeTimes
			t0 := time.Now()
			out, pt, err = s.rig.stagedTest(ctx, x, tr, s.reg)
			run := time.Since(t0)
			tot.run += run
			tot.probe += pt.setRate + pt.nextSample
			id := uint64(i)
			spans.add(id, "core.run", "", t0, run)
			spans.add(id, "linksim.set_rate(sum)", "core.run", t0, pt.setRate)
			spans.add(id, "linksim.next_sample(sum)", "core.run", t0, pt.nextSample)
		} else {
			out, err = s.rig.test(ctx, x)
		}
		tot.tests++
		if err != nil {
			if ctx.Err() != nil {
				return tot, fmt.Errorf("sim test %d: %w", i, err)
			}
			tot.fail("sim test %d: %v", i, err)
			continue
		}
		if why := implausible(out); why != "" {
			tot.fail("sim test %d: %s", i, why)
		}
		tot.accuracy += 1 - math.Abs(out.mbps-x.capacity)/x.capacity
		tot.virtualMs += float64(out.duration) / float64(time.Millisecond)
		binary.LittleEndian.PutUint64(word[:8], math.Float64bits(out.mbps))
		binary.LittleEndian.PutUint64(word[8:], uint64(out.duration))
		tot.digest.Write(word[:])
	}
	if traced {
		tot.events += countEvents(tr, tot.kinds)
	}
	return tot, nil
}

func (t *simTotals) fail(format string, args ...any) {
	t.failed++
	if t.firstFailure == "" {
		t.firstFailure = fmt.Sprintf(format, args...)
	}
}

// implausible names what is wrong with an emulated test's estimate: it must
// be a finite number no sample contradicts.
func implausible(out testOutcome) string {
	if math.IsNaN(out.mbps) || math.IsInf(out.mbps, 0) {
		return fmt.Sprintf("estimate %v is not finite", out.mbps)
	}
	if len(out.samples) == 0 {
		return "no samples"
	}
	lo, hi := out.samples[0], out.samples[0]
	for _, s := range out.samples {
		lo, hi = math.Min(lo, s), math.Max(hi, s)
	}
	if out.mbps < lo || out.mbps > hi {
		return fmt.Sprintf("estimate %.3f outside its samples' range [%.3f, %.3f]", out.mbps, lo, hi)
	}
	return ""
}

func (s *simInstance) measure(ctx context.Context, cfg *runConfig, rec *recorder) error {
	var first, firstTraced simTotals
	tracedSum := simTotals{kinds: map[string]int{}}
	err := runBatches(ctx, cfg, cfg.duration(), rec, func(b int, traced bool) (batchStat, error) {
		in, err := s.rig.draw(cfg.batchSeed(b), cfg.size.simBatch)
		if err != nil {
			return batchStat{}, err
		}
		c0, t0 := cpuTime(), time.Now()
		tot, err := s.runBatch(ctx, in, traced, rec.spans)
		st := batchStat{ops: float64(tot.tests), wall: time.Since(t0), cpu: cpuTime() - c0}
		if err != nil {
			return st, err
		}
		rec.attempted += tot.tests
		if tot.failed > 0 {
			rec.failN(tot.failed, "%s", tot.firstFailure)
		}
		switch {
		case b == 0:
			first = tot
		case b == 1 && traced:
			firstTraced = tot
		}
		if traced {
			tracedSum.tests += tot.tests
			tracedSum.run += tot.run
			tracedSum.probe += tot.probe
			tracedSum.events += tot.events
			tracedSum.virtualMs += tot.virtualMs
			for k, n := range tot.kinds {
				tracedSum.kinds[k] += n
			}
		}
		return st, nil
	})
	if err != nil {
		return err
	}
	// Scored on the first batch alone, whose size is fixed: exact for a seed.
	n := float64(first.tests)
	rec.quality = 100 * first.accuracy / n
	rec.digest = digestHex(first.digest)
	rec.note("detail sim_virtual_ms_mean %.6f over the first %d tests", first.virtualMs/n, first.tests)
	if !cfg.traced {
		return nil
	}
	if got := digestHex(firstTraced.digest); got != rec.digest {
		rec.violate("sim-static: the staged path gave digest %s where SimulateTestContext gave %s on the same inputs", got, rec.digest)
	}
	simRows(tracedSum, rec)
	rec.layer["obs.trace_events_per_test"] = float64(tracedSum.events) / float64(tracedSum.tests)
	return nil
}

// simRows fills the per-test engine rows from traced tests. The engine's
// self time is its run span less the time below the probe seam.
func simRows(t simTotals, rec *recorder) {
	n := float64(t.tests)
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	rec.layer["core.engine_self_us_per_test"] = us(t.run-t.probe) / n
	rec.layer["linksim.probe_us_per_test"] = us(t.probe) / n
	rec.layer["core.virtual_ms_per_test"] = t.virtualMs / n
	rec.layer["core.samples_per_test"] = float64(t.kinds[eventSample]) / n
	rec.layer["core.escalations_per_test"] = float64(t.kinds[eventEscalate]) / n
	rec.layer["core.converged_share"] = float64(t.kinds[eventConverged]) / n
}

// ---------------------------------------------------------------------------

type campaignInstance struct {
	profiles []string
	reg      *registry
}

func setupCampaign(ctx context.Context, cfg *runConfig) (instance, error) {
	c := &campaignInstance{profiles: profileNames(), reg: newRegistry()}
	if n := cfg.size.campaignProfiles; n > 0 && n < len(c.profiles) {
		c.profiles = c.profiles[:n]
	}
	// The report must not depend on the worker count: checked on a
	// two-profile slice before anything is timed.
	slice := c.profiles[:min(2, len(c.profiles))]
	_, one, err := runCampaign(ctx, slice, cfg.size.campaignCheckRuns, cfg.setupSeed(), 1, nil)
	if err != nil {
		return nil, err
	}
	_, many, err := runCampaign(ctx, slice, cfg.size.campaignCheckRuns, cfg.setupSeed(), cfg.workers, nil)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(one, many) {
		return nil, fmt.Errorf("campaign determinism check: the report differs between 1 and %d workers", cfg.workers)
	}
	return c, nil
}

func (c *campaignInstance) close() error { return nil }

func (c *campaignInstance) measure(ctx context.Context, cfg *runConfig, rec *recorder) error {
	want := campaignCells(len(c.profiles))
	runsPerCampaign := float64(want * cfg.size.campaignRuns)
	var reports [2][]byte
	tracedCampaigns := 0
	err := runBatches(ctx, cfg, cfg.duration(), rec, func(b int, traced bool) (batchStat, error) {
		var reg *registry
		if traced {
			reg = c.reg
			tracedCampaigns++
		}
		rec.attempted++
		c0, t0 := cpuTime(), time.Now()
		cells, report, err := runCampaign(ctx, c.profiles, cfg.size.campaignRuns, cfg.batchSeed(b), cfg.workers, reg)
		st := batchStat{ops: runsPerCampaign, wall: time.Since(t0), cpu: cpuTime() - c0}
		if err != nil {
			if ctx.Err() != nil {
				return st, err
			}
			rec.fail("campaign %d: %v", b, err)
			return st, nil
		}
		rec.spans.add(uint64(b), "exper.run_campaign", "", t0, st.wall)
		if cells != want {
			rec.fail("campaign %d: %d cells, want %d", b, cells, want)
		}
		if b < len(reports) {
			reports[b] = report
		}
		return st, nil
	})
	if err != nil {
		return err
	}
	// Completeness: the share of the cells asked for that the report has.
	rec.quality = 100 * float64(rec.attempted-rec.failed) / float64(rec.attempted)
	sum := sha256.Sum256(reports[0])
	rec.digest = hex.EncodeToString(sum[:])[:16]
	if !cfg.traced {
		return nil
	}
	if !bytes.Equal(reports[0], reports[1]) {
		rec.violate("campaign-ran: handing RunCampaign a registry changed the report")
	}
	tracedRuns := float64(tracedCampaigns) * runsPerCampaign
	rec.layer["ranprofile.state_changes_per_run"] = histogramCount(c.reg, campaignStateDwellSeries) / tracedRuns
	rec.layer["ranprofile.handovers_per_run"] = counterValue(c.reg, campaignHandoverSeries) / tracedRuns
	rec.layer["exper.cells"] = float64(want)
	rec.layer["exper.mean_accuracy_pct"], rec.layer["exper.converged_share"] = campaignSummary(reports[0])
	return nil
}

// ---------------------------------------------------------------------------

type fleetInstance struct {
	plan fleetPlan
	reg  *registry
}

func setupFleet(ctx context.Context, cfg *runConfig) (instance, error) {
	plan, err := planFleet()
	if err != nil {
		return nil, err
	}
	// The assignment stream must not depend on the worker count: checked on
	// one short day before anything is timed.
	one, err := plan.day(ctx, cfg.size.fleetCheckDay, cfg.size.fleetPeak, cfg.setupSeed(), 1, nil)
	if err != nil {
		return nil, err
	}
	many, err := plan.day(ctx, cfg.size.fleetCheckDay, cfg.size.fleetPeak, cfg.setupSeed(), cfg.workers, nil)
	if err != nil {
		return nil, err
	}
	if one.digest != many.digest {
		return nil, fmt.Errorf("fleet determinism check: assignment digest differs between 1 and %d workers", cfg.workers)
	}
	return &fleetInstance{plan: plan, reg: newRegistry()}, nil
}

func (f *fleetInstance) close() error { return nil }

func (f *fleetInstance) measure(ctx context.Context, cfg *runConfig, rec *recorder) error {
	var started, rejected, failovers, peak int
	var speedup []float64
	var digests [2]string
	err := runBatches(ctx, cfg, cfg.duration(), rec, func(b int, traced bool) (batchStat, error) {
		var reg *registry
		if traced {
			reg = f.reg
		}
		rec.attempted++
		c0, t0 := cpuTime(), time.Now()
		day, err := f.plan.day(ctx, cfg.size.fleetDay, cfg.size.fleetPeak, cfg.batchSeed(b), cfg.workers, reg)
		st := batchStat{ops: float64(day.completed), wall: time.Since(t0), cpu: cpuTime() - c0}
		if err != nil {
			if ctx.Err() != nil {
				return st, err
			}
			rec.fail("fleet day %d: %v", b, err)
			return st, nil
		}
		rec.spans.add(uint64(b), "loadgen.run", "", t0, st.wall)
		started += day.started
		rejected += day.rejected
		failovers += day.failovers
		peak = max(peak, day.peak)
		speedup = append(speedup, cfg.size.fleetDay.Seconds()/st.wall.Seconds())
		if b < len(digests) {
			digests[b] = day.digest
		}
		return st, nil
	})
	if err != nil {
		return err
	}
	// Service: the share of arriving tests the fleet admitted.
	if arrived := started + rejected; arrived > 0 {
		rec.quality = 100 * float64(started) / float64(arrived)
	}
	rec.digest = digests[0]
	if len(rec.digest) > 16 {
		rec.digest = rec.digest[:16]
	}
	if !cfg.traced {
		return nil
	}
	if digests[0] != digests[1] {
		rec.violate("fleet-day: handing loadgen a registry changed the assignment digest")
	}
	rec.layer["loadgen.virtual_speedup"] = median(speedup)
	rec.layer["loadgen.peak_concurrent"] = float64(peak)
	if arrived := started + rejected; arrived > 0 {
		rec.layer["fleet.rejected_share"] = float64(rejected) / float64(arrived)
	}
	rec.layer["fleet.failovers"] = float64(failovers)
	return nil
}
