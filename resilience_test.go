package swiftest_test

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	swiftest "github.com/mobilebandwidth/swiftest"
)

// TestPublicErrorSentinels: every validation and reachability failure of the
// public API carries a matchable sentinel.
func TestPublicErrorSentinels(t *testing.T) {
	model, _ := swiftest.DefaultModel(swiftest.Tech4G)

	if _, err := swiftest.TestContext(context.Background(), swiftest.TestOptions{Model: model}); !errors.Is(err, swiftest.ErrNoServers) {
		t.Errorf("empty pool: err = %v, want ErrNoServers", err)
	}
	if _, err := swiftest.TestContext(context.Background(), swiftest.TestOptions{
		Servers: []swiftest.ServerAddr{{Addr: "127.0.0.1:1"}},
	}); !errors.Is(err, swiftest.ErrModelRequired) {
		t.Errorf("missing model: err = %v, want ErrModelRequired", err)
	}
	if _, err := swiftest.TestContext(context.Background(), swiftest.TestOptions{
		Servers:     []swiftest.ServerAddr{{Addr: "127.0.0.1:1", UplinkMbps: 100}},
		Model:       model,
		PingTimeout: 100 * time.Millisecond,
	}); !errors.Is(err, swiftest.ErrNoReachableServer) {
		t.Errorf("unreachable pool: err = %v, want ErrNoReachableServer", err)
	}

	_, err := swiftest.PingServer(context.Background(), swiftest.PingOptions{Addr: "127.0.0.1:1", Count: 1, Timeout: 50 * time.Millisecond})
	if !errors.Is(err, swiftest.ErrProbeTimeout) {
		t.Errorf("dead ping: err = %v, want ErrProbeTimeout", err)
	}
	var se *swiftest.ServerError
	if !errors.As(err, &se) || se.Addr != "127.0.0.1:1" {
		t.Errorf("dead ping: err = %v, want *ServerError naming the address", err)
	}
}

// TestTestContextPreCancelled: a context that is already done must abort the
// test before a single datagram is sent — the server sees no ping and no
// session.
func TestTestContextPreCancelled(t *testing.T) {
	reg := swiftest.NewMetricsRegistry()
	srv, err := swiftest.NewServer("127.0.0.1:0", swiftest.ServerOptions{
		UplinkMbps: 50,
		Metrics:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	model, _ := swiftest.DefaultModel(swiftest.Tech4G)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = swiftest.TestContext(ctx, swiftest.TestOptions{
		Servers: []swiftest.ServerAddr{{Addr: srv.Addr(), UplinkMbps: 50}},
		Model:   model,
	})
	if !errors.Is(err, swiftest.ErrTestAborted) {
		t.Fatalf("err = %v, want ErrTestAborted", err)
	}
	time.Sleep(50 * time.Millisecond) // let any stray datagram land
	snap := reg.Snapshot()
	if got := snap.Counters["swiftest_server_pings_total"]; got != 0 {
		t.Errorf("server answered %d pings after a pre-cancelled test", got)
	}
	if got := snap.Counters["swiftest_server_sessions_started_total"]; got != 0 {
		t.Errorf("server started %d sessions after a pre-cancelled test", got)
	}
}

// TestPingContextCancelled: the context sentinel also surfaces through the
// latency probe.
func TestPingContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := swiftest.PingServer(ctx, swiftest.PingOptions{Addr: "127.0.0.1:1", Count: 1, Timeout: time.Second}); !errors.Is(err, swiftest.ErrTestAborted) {
		t.Errorf("err = %v, want ErrTestAborted", err)
	}
}

// failoverModel saturates a three-by-200 Mbps pool.
func failoverModel(t *testing.T) *swiftest.Model {
	t.Helper()
	m, err := swiftest.NewModel(
		swiftest.ModelComponent{Weight: 0.4, Mu: 300, Sigma: 50},
		swiftest.ModelComponent{Weight: 0.6, Mu: 600, Sigma: 60},
	)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// simFailover runs the canonical three-server blackout scenario through the
// public emulation API and returns the result and trace.
func simFailover(t *testing.T) (swiftest.Result, *swiftest.Trace) {
	t.Helper()
	tr := swiftest.NewTrace()
	res, err := swiftest.SimulateTestContext(context.Background(), swiftest.LinkConfig{
		CapacityMbps: 600,
		Fluctuation:  0.01,
		Seed:         21,
	}, failoverModel(t), swiftest.SimulateOptions{
		SessionOptions: swiftest.SessionOptions{
			Trace: tr,
			Faults: &swiftest.FaultPlan{Seed: 7, Faults: []swiftest.Fault{
				{Kind: swiftest.FaultBlackout, Server: 1, AtMS: 450},
			}},
		},
		Servers: []swiftest.SimServer{
			{Addr: "srv-a", UplinkMbps: 200},
			{Addr: "srv-b", UplinkMbps: 200},
			{Addr: "srv-c", UplinkMbps: 200},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, tr
}

// TestSimulateFailoverPublic: the acceptance scenario through the public
// API — one of three emulated servers blacks out mid-test and the run
// finishes degraded on the survivors, with the loss in the trace.
func TestSimulateFailoverPublic(t *testing.T) {
	res, tr := simFailover(t)
	if res.ServersUsed != 3 || res.ServersLost != 1 || !res.Degraded {
		t.Fatalf("health = used %d lost %d degraded %v, want 3/1/true",
			res.ServersUsed, res.ServersLost, res.Degraded)
	}
	if res.BandwidthMbps <= 0 {
		t.Error("degraded run produced no estimate")
	}
	lost := 0
	for _, e := range tr.Events() {
		if e.Kind == "server_lost" {
			lost++
			if e.Note != "srv-b" {
				t.Errorf("server_lost names %q, want srv-b", e.Note)
			}
		}
	}
	if lost != 1 {
		t.Errorf("server_lost events = %d, want 1", lost)
	}
}

// TestSimulateFailoverDeterministic: seed-fixed reruns of a fault scenario
// produce bit-identical results and event streams.
func TestSimulateFailoverDeterministic(t *testing.T) {
	res1, tr1 := simFailover(t)
	res2, tr2 := simFailover(t)
	if !reflect.DeepEqual(res1, res2) {
		t.Errorf("results diverge across reruns:\n%+v\n%+v", res1, res2)
	}
	if !reflect.DeepEqual(tr1.Events(), tr2.Events()) {
		t.Error("event streams diverge across reruns")
	}
}

// TestFaultPlanParse: the JSON schema round-trips through the public parser
// and rejects typos.
func TestFaultPlanParse(t *testing.T) {
	plan, err := swiftest.ParseFaultPlan([]byte(`{
		"seed": 3,
		"faults": [
			{"kind": "blackout", "server": 1, "at_ms": 450},
			{"kind": "burst_loss", "server": -1, "at_ms": 0, "duration_ms": 200, "prob": 0.2}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Faults) != 2 || plan.Faults[0].Kind != swiftest.FaultBlackout {
		t.Errorf("plan = %+v", plan)
	}
	if _, err := swiftest.ParseFaultPlan([]byte(`{"faults":[{"kind":"blackout","sevrer":0}]}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := swiftest.ParseFaultPlan([]byte(`{"faults":[{"kind":"meteor","server":0}]}`)); err == nil {
		t.Error("unknown kind accepted")
	}
}

// TestLoopbackFaultyServerPublic: a real server built with a public fault
// plan acts it out — a handshake-drop window forces client retries, visible
// in the client metrics.
func TestLoopbackFaultyServerPublic(t *testing.T) {
	plan := &swiftest.FaultPlan{Faults: []swiftest.Fault{
		{Kind: swiftest.FaultHandshakeDrop, Server: 0, AtMS: 0, DurationMS: 300},
	}}
	srv, err := swiftest.NewServer("127.0.0.1:0", swiftest.ServerOptions{
		UplinkMbps: 50,
		FaultPlan:  plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	model, err := swiftest.NewModel(swiftest.ModelComponent{Weight: 1, Mu: 20, Sigma: 3})
	if err != nil {
		t.Fatal(err)
	}
	reg := swiftest.NewMetricsRegistry()
	res, err := swiftest.TestContext(context.Background(), swiftest.TestOptions{
		SessionOptions: swiftest.SessionOptions{Metrics: reg},
		Servers:        []swiftest.ServerAddr{{Addr: srv.Addr(), UplinkMbps: 50}},
		Model:          model,
		MaxDuration:    3 * time.Second,
		Seed:           2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BandwidthMbps <= 0 {
		t.Error("no estimate through the drop window")
	}
	snap := reg.Snapshot()
	if snap.Counters["swiftest_client_handshake_retries_total"] == 0 {
		t.Error("no handshake retry recorded despite the drop window")
	}
}
