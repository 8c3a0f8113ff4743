package swiftest_test

// Public-API face of the two-channel wire protocol: lease-token
// authentication, the shared Estimates struct across live, emulated, and
// baseline runners, and the SessionOptions discipline.

import (
	"context"
	"errors"
	"testing"
	"time"

	swiftest "github.com/mobilebandwidth/swiftest"
)

func smallModel(t *testing.T) *swiftest.Model {
	t.Helper()
	m, err := swiftest.NewModel(
		swiftest.ModelComponent{Weight: 0.8, Mu: 20, Sigma: 3},
		swiftest.ModelComponent{Weight: 0.2, Mu: 50, Sigma: 6},
	)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestPublicV2Negotiation: a default live test opens one session, closes it
// with an acked Bye (the server counts it finished, not reaped), and reports
// the full estimator family.
func TestPublicV2Negotiation(t *testing.T) {
	reg := swiftest.NewMetricsRegistry()
	srv, err := swiftest.NewServer("127.0.0.1:0", swiftest.ServerOptions{UplinkMbps: 60, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	res, err := swiftest.TestContext(context.Background(), swiftest.TestOptions{
		Servers:     []swiftest.ServerAddr{{Addr: srv.Addr(), UplinkMbps: 60}},
		Model:       smallModel(t),
		MaxDuration: 3 * time.Second,
		Seed:        31,
	})
	if err != nil {
		t.Fatal(err)
	}
	counters := reg.Snapshot().Counters
	if started, finished := counters["swiftest_server_sessions_started_total"],
		counters["swiftest_server_sessions_finished_total"]; started != 1 || finished != 1 {
		t.Errorf("server saw %d sessions started, %d finished by Bye; want 1 and 1", started, finished)
	}
	if res.Estimates.CrossingMbps != res.BandwidthMbps {
		t.Errorf("Estimates.CrossingMbps = %g, want BandwidthMbps %g",
			res.Estimates.CrossingMbps, res.BandwidthMbps)
	}
	if res.Estimates.TrimmedMeanMbps <= 0 || res.Estimates.SustainedPeakMbps <= 0 || res.Estimates.P90P80Mbps <= 0 {
		t.Errorf("estimator family incomplete: %+v", res.Estimates)
	}
	if len(res.Trajectory) == 0 {
		t.Error("no trajectory recorded")
	}
}

// TestPublicAuthFlow: a keyed server refuses an untokened test with
// ErrAuthRejected and admits one holding a minted token — the full
// dispatcher-lease story through the public API.
func TestPublicAuthFlow(t *testing.T) {
	const key = 0x5157494654455354
	srv, err := swiftest.NewServer("127.0.0.1:0", swiftest.ServerOptions{UplinkMbps: 60, AuthKey: key})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	opts := swiftest.TestOptions{
		Servers:     []swiftest.ServerAddr{{Addr: srv.Addr(), UplinkMbps: 60}},
		Model:       smallModel(t),
		MaxDuration: 2 * time.Second,
		Seed:        33,
	}
	if _, err := swiftest.TestContext(context.Background(), opts); !errors.Is(err, swiftest.ErrAuthRejected) {
		t.Errorf("untokened test: err = %v, want ErrAuthRejected", err)
	}

	token := swiftest.MintAuthToken(key, 0, 1, time.Time{})
	parsed, err := swiftest.ParseAuthToken(token.String())
	if err != nil || parsed != token {
		t.Fatalf("token round-trip: %v (%v != %v)", err, parsed, token)
	}
	opts.Token = parsed
	res, err := swiftest.TestContext(context.Background(), opts)
	if err != nil {
		t.Fatalf("tokened test: %v", err)
	}
	if res.BandwidthMbps <= 0 {
		t.Errorf("tokened test = %.1f Mbps, want traffic", res.BandwidthMbps)
	}
}

// TestLiveTestRejectsFaultPlan: fault plans belong to the emulator and to
// fault-injecting servers; a live test with one set is a caller bug.
func TestLiveTestRejectsFaultPlan(t *testing.T) {
	_, err := swiftest.TestContext(context.Background(), swiftest.TestOptions{
		SessionOptions: swiftest.SessionOptions{Faults: &swiftest.FaultPlan{}},
		Servers:        []swiftest.ServerAddr{{Addr: "127.0.0.1:1", UplinkMbps: 10}},
		Model:          smallModel(t),
	})
	if err == nil {
		t.Fatal("live test accepted a fault plan")
	}
}

// TestSimulateSharesEstimates: the emulated runner reports the same
// estimator family and a regime classification.
func TestSimulateSharesEstimates(t *testing.T) {
	model, err := swiftest.DefaultModel(swiftest.Tech5G)
	if err != nil {
		t.Fatal(err)
	}
	res, err := swiftest.SimulateTestContext(context.Background(),
		swiftest.LinkConfig{CapacityMbps: 300, Fluctuation: 0.01, Seed: 9}, model,
		swiftest.SimulateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimates.CrossingMbps != res.BandwidthMbps {
		t.Errorf("sim Estimates.CrossingMbps = %g, want %g", res.Estimates.CrossingMbps, res.BandwidthMbps)
	}

	// A token-bucket-shaped link is the clearest regime: an early burst far
	// above the flat post-clamp plateau must classify as shaping.
	shaped, err := swiftest.SimulateTestContext(context.Background(),
		swiftest.LinkConfig{CapacityMbps: 300, ShapingBurstMB: 4, ShapingMbps: 40, Seed: 9}, model,
		swiftest.SimulateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if shaped.Regime != swiftest.RegimeShaping {
		t.Errorf("shaped-link regime = %v, want shaping (trajectory %v)", shaped.Regime, shaped.Trajectory)
	}
}

// TestBaselinesShareEstimates: baseline reports carry the same Estimates
// struct, so Figure-4-style comparisons can use any estimator.
func TestBaselinesShareEstimates(t *testing.T) {
	link := swiftest.LinkConfig{CapacityMbps: 100, RTT: 30 * time.Millisecond, Seed: 5}
	rep, err := swiftest.RunFastBTS(link)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Estimates.TrimmedMeanMbps <= 0 || rep.Estimates.SustainedPeakMbps <= 0 {
		t.Errorf("baseline estimates incomplete: %+v", rep.Estimates)
	}
	if rep.Estimates.CrossingMbps != rep.BandwidthMbps {
		t.Errorf("baseline crossing = %g, want report result %g",
			rep.Estimates.CrossingMbps, rep.BandwidthMbps)
	}
}

// TestPingServerOptions: the struct-options ping probes a live server with
// defaulted knobs and keeps the deprecated positional forms working.
func TestPingServerOptions(t *testing.T) {
	srv, err := swiftest.NewServer("127.0.0.1:0", swiftest.ServerOptions{UplinkMbps: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	rtt, err := swiftest.PingServer(context.Background(), swiftest.PingOptions{Addr: srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	if rtt <= 0 {
		t.Errorf("rtt = %v, want > 0", rtt)
	}
}
