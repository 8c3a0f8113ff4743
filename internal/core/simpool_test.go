package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/errdefs"
	"github.com/mobilebandwidth/swiftest/internal/faults"
	"github.com/mobilebandwidth/swiftest/internal/obs"
)

// threeServerPool is the canonical failover fixture: a 600 Mbps access link
// fed by three servers of 200 Mbps uplink each, so losing one server drops
// the reachable pool capacity to 400 Mbps.
func threeServerPool(t *testing.T, seed int64, plan *faults.Plan, trace *obs.Trace) (*SimProbe, func()) {
	t.Helper()
	l := quietLink(600, seed)
	sp := NewSimProbe(l, SimPoolConfig{
		Servers: []SimServer{
			{Addr: "srv-a", UplinkMbps: 200},
			{Addr: "srv-b", UplinkMbps: 200},
			{Addr: "srv-c", UplinkMbps: 200},
		},
		Faults: plan.Injector(),
		Trace:  trace,
	})
	return sp, sp.Close
}

func countEvents(tr *obs.Trace, kind string) int {
	n := 0
	for _, e := range tr.Events() {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

func TestSimPoolAggregatesServers(t *testing.T) {
	tr := obs.NewTrace(0)
	sp, done := threeServerPool(t, 11, nil, tr)
	defer done()
	res, err := RunContext(context.Background(), sp, Config{Model: model5G(), Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("did not converge")
	}
	// The pool caps at 3×200 = 600 Mbps, matching the link: the estimate
	// must land on the link capacity, not on one server's uplink.
	if rel := math.Abs(res.Bandwidth-600) / 600; rel > 0.08 {
		t.Errorf("bandwidth %g, want ≈600", res.Bandwidth)
	}
	if res.ServersUsed != 3 || res.ServersLost != 0 || res.Degraded {
		t.Errorf("health = used %d lost %d degraded %v, want 3/0/false",
			res.ServersUsed, res.ServersLost, res.Degraded)
	}
	if countEvents(tr, obs.EventServerAdd) != 3 {
		t.Errorf("server_add events = %d, want 3", countEvents(tr, obs.EventServerAdd))
	}
}

// TestSimPoolBlackoutFailover is the acceptance scenario: one of three
// servers blacks out mid-test, the client detects the dead session within K
// sample windows, redistributes its share, and the run converges — degraded
// but within tolerance of the surviving 400 Mbps pool capacity.
func TestSimPoolBlackoutFailover(t *testing.T) {
	plan := &faults.Plan{Seed: 5, Faults: []faults.Fault{
		{Kind: faults.Blackout, Server: 1, AtMS: 450},
	}}
	tr := obs.NewTrace(0)
	sp, done := threeServerPool(t, 11, plan, tr)
	defer done()
	res, err := RunContext(context.Background(), sp, Config{Model: model5G(), Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("degraded run did not converge")
	}
	if res.ServersUsed != 3 || res.ServersLost != 1 || !res.Degraded {
		t.Fatalf("health = used %d lost %d degraded %v, want 3/1/true",
			res.ServersUsed, res.ServersLost, res.Degraded)
	}
	// Surviving pool capacity is 2×200 = 400 Mbps.
	if rel := math.Abs(res.Bandwidth-400) / 400; rel > 0.1 {
		t.Errorf("bandwidth %g, want ≈400 (surviving capacity)", res.Bandwidth)
	}
	if n := countEvents(tr, obs.EventServerLost); n != 1 {
		t.Errorf("server_lost events = %d, want exactly 1", n)
	}
	for _, e := range tr.Events() {
		if e.Kind == obs.EventServerLost && e.Note != "srv-b" {
			t.Errorf("server_lost names %q, want srv-b", e.Note)
		}
	}
}

// TestSimPoolFailoverDeterministic reruns the blackout scenario with fixed
// seeds and requires bit-identical results and event streams.
func TestSimPoolFailoverDeterministic(t *testing.T) {
	run := func() (Result, []obs.Event) {
		plan := &faults.Plan{Seed: 5, Faults: []faults.Fault{
			{Kind: faults.Blackout, Server: 1, AtMS: 450},
			{Kind: faults.BurstLoss, Server: 2, AtMS: 200, DurationMS: 300, Prob: 0.2},
		}}
		tr := obs.NewTrace(0)
		sp, done := threeServerPool(t, 11, plan, tr)
		defer done()
		res, err := RunContext(context.Background(), sp, Config{Model: model5G(), Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		return res, tr.Events()
	}
	res1, ev1 := run()
	res2, ev2 := run()
	if !reflect.DeepEqual(res1, res2) {
		t.Errorf("results differ across seed-fixed reruns:\n%+v\n%+v", res1, res2)
	}
	if !reflect.DeepEqual(ev1, ev2) {
		t.Errorf("event streams differ across seed-fixed reruns (%d vs %d events)",
			len(ev1), len(ev2))
	}
}

// TestSimPoolHandshakeDropSkipsServer: a server whose handshakes all drop is
// skipped at session-open time; the test runs on the remaining pool and is
// not counted as degraded (nothing was lost mid-test).
func TestSimPoolHandshakeDropSkipsServer(t *testing.T) {
	plan := &faults.Plan{Faults: []faults.Fault{
		{Kind: faults.HandshakeDrop, Server: 0, AtMS: 0}, // Prob 0 ⇒ drop every attempt
	}}
	tr := obs.NewTrace(0)
	sp, done := threeServerPool(t, 11, plan, tr)
	defer done()
	res, err := RunContext(context.Background(), sp, Config{Model: model5G(), Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if res.ServersUsed != 2 || res.ServersLost != 0 || res.Degraded {
		t.Errorf("health = used %d lost %d degraded %v, want 2/0/false",
			res.ServersUsed, res.ServersLost, res.Degraded)
	}
	if n := countEvents(tr, obs.EventServerRetry); n != HandshakeAttempts {
		t.Errorf("server_retry events = %d, want %d", n, HandshakeAttempts)
	}
	// Two 200 Mbps servers remain.
	if rel := math.Abs(res.Bandwidth-400) / 400; rel > 0.1 {
		t.Errorf("bandwidth %g, want ≈400", res.Bandwidth)
	}
}

// TestSimPoolHeadroom: the emulated pool opens servers by the live
// client's rule, until their uplinks cover the rate with 5 % headroom, so
// 24 Mbit/s on 25 Mbit/s servers opens two.
func TestSimPoolHeadroom(t *testing.T) {
	sp := NewSimProbe(quietLink(100, 3), SimPoolConfig{
		Servers: []SimServer{{UplinkMbps: 25}, {UplinkMbps: 25}, {UplinkMbps: 25}},
	})
	defer sp.Close()
	if err := sp.SetRate(24); err != nil {
		t.Fatal(err)
	}
	if got := sp.ServersUsed(); got != 2 {
		t.Errorf("SetRate(24) on 3 × 25 Mbit/s opened %d servers, want 2", got)
	}
}

// TestSimPoolTotalBlackoutExhaustsProbe: when every server dies the probe
// reports exhaustion and Run finishes with the trailing-window estimate
// rather than erroring.
func TestSimPoolTotalBlackoutExhaustsProbe(t *testing.T) {
	plan := &faults.Plan{Faults: []faults.Fault{
		{Kind: faults.Blackout, Server: faults.AllServers, AtMS: 600},
	}}
	tr := obs.NewTrace(0)
	sp, done := threeServerPool(t, 11, plan, tr)
	defer done()
	res, err := RunContext(context.Background(), sp, Config{Model: model5G(), Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if res.ServersLost != 3 {
		t.Errorf("lost %d servers, want all 3", res.ServersLost)
	}
	if res.Degraded {
		t.Error("losing every server is a failure, not a degraded success")
	}
	if countEvents(tr, obs.EventProbeEnd) != 1 {
		t.Error("missing probe_exhausted event")
	}
}

// recordingProbe counts engine calls and can cancel a context mid-test.
type recordingProbe struct {
	setRates    int
	samples     int
	cancelAfter int
	cancel      context.CancelFunc
	elapsed     time.Duration
}

func (p *recordingProbe) SetRate(float64) error { p.setRates++; return nil }
func (p *recordingProbe) NextSample() (float64, bool) {
	p.samples++
	p.elapsed += 50 * time.Millisecond
	if p.cancel != nil && p.samples >= p.cancelAfter {
		p.cancel()
	}
	return 100, true
}
func (p *recordingProbe) Elapsed() time.Duration { return p.elapsed }
func (p *recordingProbe) DataMB() float64        { return float64(p.samples) }

func TestRunContextPreCancelledSendsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := &recordingProbe{}
	_, err := RunContext(ctx, p, Config{Model: model5G()})
	if !errors.Is(err, errdefs.ErrTestAborted) {
		t.Fatalf("err = %v, want ErrTestAborted", err)
	}
	if p.setRates != 0 || p.samples != 0 {
		t.Errorf("probe touched despite pre-cancelled context: %d SetRate, %d samples",
			p.setRates, p.samples)
	}
}

func TestRunContextCancelMidTest(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := &recordingProbe{cancelAfter: 4, cancel: cancel}
	tr := obs.NewTrace(0)
	res, err := RunContext(ctx, p, Config{Model: model5G(), Trace: tr})
	if !errors.Is(err, errdefs.ErrTestAborted) {
		t.Fatalf("err = %v, want ErrTestAborted", err)
	}
	if p.samples != 4 {
		t.Errorf("took %d samples after cancel-at-4", p.samples)
	}
	if res.Duration == 0 || res.DataMB == 0 {
		t.Errorf("partial result not populated: %+v", res)
	}
	if countEvents(tr, obs.EventAborted) != 1 {
		t.Error("missing aborted trace event")
	}
}

func TestRunModelRequiredSentinel(t *testing.T) {
	_, err := RunContext(context.Background(), &recordingProbe{}, Config{})
	if !errors.Is(err, errdefs.ErrModelRequired) {
		t.Fatalf("err = %v, want ErrModelRequired", err)
	}
}
