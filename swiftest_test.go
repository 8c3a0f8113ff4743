package swiftest_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	swiftest "github.com/mobilebandwidth/swiftest"
)

func TestDefaultModels(t *testing.T) {
	for _, tech := range []swiftest.Tech{swiftest.Tech4G, swiftest.Tech5G, swiftest.TechWiFi} {
		m, err := swiftest.DefaultModel(tech)
		if err != nil {
			t.Fatalf("%v: %v", tech, err)
		}
		if m.K() < 2 {
			t.Errorf("%v model should be multi-modal", tech)
		}
	}
}

func TestNewModelValidation(t *testing.T) {
	if _, err := swiftest.NewModel(); err == nil {
		t.Error("empty model accepted")
	}
	for _, c := range []swiftest.ModelComponent{
		{Weight: 1, Mu: math.NaN(), Sigma: 1},
		{Weight: 1, Mu: math.Inf(1), Sigma: 1},
		{Weight: 1, Mu: math.Inf(-1), Sigma: 1},
		{Weight: 1, Mu: 50, Sigma: math.NaN()},
		{Weight: 1, Mu: 50, Sigma: math.Inf(1)},
		{Weight: math.NaN(), Mu: 50, Sigma: 1},
		{Weight: math.Inf(1), Mu: 50, Sigma: 1},
	} {
		if _, err := swiftest.NewModel(c); err == nil {
			t.Errorf("non-finite component %+v accepted", c)
		}
	}
	m, err := swiftest.NewModel(
		swiftest.ModelComponent{Weight: 1, Mu: 100, Sigma: 10},
	)
	if err != nil || m.K() != 1 {
		t.Fatalf("single-mode model: %v", err)
	}
}

func TestFitModel(t *testing.T) {
	truth, _ := swiftest.NewModel(
		swiftest.ModelComponent{Weight: 0.5, Mu: 100, Sigma: 10},
		swiftest.ModelComponent{Weight: 0.5, Mu: 500, Sigma: 30},
	)
	rng := rand.New(rand.NewSource(9))
	var xs []float64
	for i := 0; i < 2000; i++ {
		xs = append(xs, truth.Sample(rng))
	}
	m, err := swiftest.FitModel(xs, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.K() < 2 {
		t.Errorf("fitted %d modes from bimodal data", m.K())
	}
}

func TestSimulateTest(t *testing.T) {
	model, err := swiftest.DefaultModel(swiftest.Tech5G)
	if err != nil {
		t.Fatal(err)
	}
	res, err := swiftest.SimulateTestContext(context.Background(), swiftest.LinkConfig{
		CapacityMbps: 280,
		Fluctuation:  0.01,
		Seed:         1,
	}, model, swiftest.SimulateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.BandwidthMbps-280)/280 > 0.1 {
		t.Errorf("bandwidth = %.0f, want ≈280", res.BandwidthMbps)
	}
	if !res.Converged || res.Duration > 3*time.Second {
		t.Errorf("converged=%v duration=%v", res.Converged, res.Duration)
	}
}

func TestSimulateTestValidation(t *testing.T) {
	model, _ := swiftest.DefaultModel(swiftest.Tech4G)
	if _, err := swiftest.SimulateTestContext(context.Background(), swiftest.LinkConfig{}, model, swiftest.SimulateOptions{}); err == nil {
		t.Error("zero-capacity link accepted")
	}
}

func TestBaselinesOnEmulatedLink(t *testing.T) {
	link := swiftest.LinkConfig{CapacityMbps: 150, Fluctuation: 0.01, Seed: 3}
	bts, err := swiftest.RunBTSApp(link)
	if err != nil {
		t.Fatal(err)
	}
	if bts.Duration != 10*time.Second {
		t.Errorf("BTS-APP duration = %v, want 10 s", bts.Duration)
	}
	if math.Abs(bts.BandwidthMbps-150)/150 > 0.15 {
		t.Errorf("BTS-APP result = %.0f, want ≈150", bts.BandwidthMbps)
	}
	fast, err := swiftest.RunFAST(link)
	if err != nil {
		t.Fatal(err)
	}
	fbts, err := swiftest.RunFastBTS(link)
	if err != nil {
		t.Fatal(err)
	}
	if fast.System != "fast" || fbts.System != "fastbts" || bts.System != "bts-app" {
		t.Error("system names wrong")
	}
	// The headline comparison: Swiftest beats all baselines on duration.
	model, _ := swiftest.DefaultModel(swiftest.Tech4G)
	sw, err := swiftest.SimulateTestContext(context.Background(), link, model, swiftest.SimulateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []swiftest.BaselineReport{bts, fast, fbts} {
		if sw.Duration >= b.Duration {
			t.Errorf("Swiftest (%v) not faster than %s (%v)", sw.Duration, b.System, b.Duration)
		}
	}
	if sw.DataMB >= bts.DataMB {
		t.Errorf("Swiftest data (%.0f MB) not below BTS-APP (%.0f MB)", sw.DataMB, bts.DataMB)
	}
}

func TestEndToEndOverUDP(t *testing.T) {
	srv, err := swiftest.NewServer("127.0.0.1:0", swiftest.ServerOptions{UplinkMbps: 60})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	model, err := swiftest.NewModel(
		swiftest.ModelComponent{Weight: 0.8, Mu: 20, Sigma: 3},
		swiftest.ModelComponent{Weight: 0.2, Mu: 50, Sigma: 6},
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := swiftest.TestContext(context.Background(), swiftest.TestOptions{
		Servers:     []swiftest.ServerAddr{{Addr: srv.Addr(), UplinkMbps: 60}},
		Model:       model,
		MaxDuration: 4 * time.Second,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BandwidthMbps <= 0 {
		t.Fatal("no bandwidth estimate")
	}
	if res.SelectionTime <= 0 {
		t.Error("no selection time recorded")
	}
	if len(res.Samples) < 10 {
		t.Errorf("samples = %d", len(res.Samples))
	}
	t.Logf("end-to-end: %.1f Mbps in %v (+%v selection)", res.BandwidthMbps, res.Duration, res.SelectionTime)
}

// TestLiveTestConvergesThroughRelay is the paper's headline on the product
// path: TestContext against a real server behind an emulated access link
// stops on the 3 %/ten-sample rule — not at the deadline — with the link's
// rate as its answer, at a rate below the model's first mode, between its
// modes and above them. Best of three per rate: a shared CI host can stall
// any one test for tens of milliseconds, which is a sample out of line.
func TestLiveTestConvergesThroughRelay(t *testing.T) {
	srv, err := swiftest.NewServer("127.0.0.1:0", swiftest.ServerOptions{UplinkMbps: 200})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	model, err := swiftest.NewModel(
		swiftest.ModelComponent{Weight: 0.6, Mu: 12, Sigma: 2},
		swiftest.ModelComponent{Weight: 0.4, Mu: 35, Sigma: 5},
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, rate := range []float64{8, 20, 50} {
		relay, err := swiftest.NewLinkRelay(swiftest.LinkRelayConfig{
			Target: srv.Addr(), RateMbps: rate, Delay: 10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		var res swiftest.Result
		met := false
		for try := int64(1); try <= 3 && !met; try++ {
			res, err = swiftest.TestContext(context.Background(), swiftest.TestOptions{
				Servers:     []swiftest.ServerAddr{{Addr: relay.Addr(), UplinkMbps: 200}},
				Model:       model,
				MaxDuration: 3 * time.Second,
				Seed:        try,
			})
			if err != nil {
				t.Fatal(err)
			}
			met = res.Converged && res.Duration < 2*time.Second &&
				math.Abs(res.BandwidthMbps-rate)/rate <= 0.02
			t.Logf("%g Mbit/s link, try %d: %.2f Mbit/s in %v, %.2f MB, converged=%v",
				rate, try, res.BandwidthMbps, res.Duration.Round(time.Millisecond), res.DataMB, res.Converged)
		}
		if !met {
			t.Errorf("%g Mbit/s link: no test in three converged within 2 s and 2 %%; last read %.2f Mbit/s in %v (converged=%v)",
				rate, res.BandwidthMbps, res.Duration, res.Converged)
		}
		relay.Close()
	}
}

func TestTestValidation(t *testing.T) {
	model, _ := swiftest.DefaultModel(swiftest.Tech4G)
	if _, err := swiftest.TestContext(context.Background(), swiftest.TestOptions{Model: model}); err == nil {
		t.Error("no servers accepted")
	}
	if _, err := swiftest.TestContext(context.Background(), swiftest.TestOptions{
		Servers: []swiftest.ServerAddr{{Addr: "127.0.0.1:1"}},
	}); err == nil {
		t.Error("missing model accepted")
	}
	if _, err := swiftest.TestContext(context.Background(), swiftest.TestOptions{
		Servers:     []swiftest.ServerAddr{{Addr: "127.0.0.1:1", UplinkMbps: 100}},
		Model:       model,
		PingTimeout: 100 * time.Millisecond,
	}); err == nil {
		t.Error("unreachable pool accepted")
	}

	// A server whose uplink is not a positive finite number is refused before
	// server selection: the live server behind it never sees a ping. Taken as
	// given, a zero or negative uplink caps every share at nothing and the
	// test reports 0 Mbit/s; NaN or +Inf stops the client opening or capping
	// any share.
	reg := swiftest.NewMetricsRegistry()
	srv, err := swiftest.NewServer("127.0.0.1:0", swiftest.ServerOptions{UplinkMbps: 100, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, uplink := range []float64{0, -5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := swiftest.TestContext(context.Background(), swiftest.TestOptions{
			Servers:     []swiftest.ServerAddr{{Addr: srv.Addr(), UplinkMbps: uplink}},
			Model:       model,
			MaxDuration: 300 * time.Millisecond,
		})
		var se *swiftest.ServerError
		if !errors.As(err, &se) || se.Addr != srv.Addr() {
			t.Errorf("uplink %g: err = %v, want a ServerError naming %s", uplink, err, srv.Addr())
		}
	}
	if pings := reg.Snapshot().Counters["swiftest_server_pings_total"]; pings != 0 {
		t.Errorf("server answered %d pings for pools it should have refused", pings)
	}
}

func TestSaveLoadModel(t *testing.T) {
	model, err := swiftest.DefaultModel(swiftest.Tech4G)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/model.json"
	if err := swiftest.SaveModel(path, model); err != nil {
		t.Fatal(err)
	}
	loaded, err := swiftest.LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.K() != model.K() || loaded.MostProbableMode() != model.MostProbableMode() {
		t.Error("model changed across save/load")
	}
	if _, err := swiftest.LoadModel(t.TempDir() + "/missing.json"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestLinkRelayFacade(t *testing.T) {
	srv, err := swiftest.NewServer("127.0.0.1:0", swiftest.ServerOptions{UplinkMbps: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	relay, err := swiftest.NewLinkRelay(swiftest.LinkRelayConfig{
		Target:   srv.Addr(),
		RateMbps: 8,
		Delay:    15 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()

	// Ping through the relay: latency must include the added delay.
	rtt, err := swiftest.PingServer(context.Background(), swiftest.PingOptions{Addr: relay.Addr(), Count: 2, Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if rtt < 10*time.Millisecond {
		t.Errorf("RTT through 15 ms relay = %v", rtt)
	}
	model, err := swiftest.NewModel(
		swiftest.ModelComponent{Weight: 0.7, Mu: 6, Sigma: 1},
		swiftest.ModelComponent{Weight: 0.3, Mu: 20, Sigma: 3},
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := swiftest.TestContext(context.Background(), swiftest.TestOptions{
		Servers:     []swiftest.ServerAddr{{Addr: relay.Addr(), UplinkMbps: 100}},
		Model:       model,
		MaxDuration: 3 * time.Second,
		Seed:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BandwidthMbps < 4 || res.BandwidthMbps > 12 {
		t.Errorf("measured %.1f Mbps through an 8 Mbps emulated link", res.BandwidthMbps)
	}
	if res.Jitter <= 0 {
		t.Error("no jitter diagnostic")
	}
}
