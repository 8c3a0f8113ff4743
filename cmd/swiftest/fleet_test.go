package main

// End-to-end tests of the dispatch verb's HTTP control plane over real
// loopback UDP: a deployment artifact boots the control plane, real test
// servers register into the planned slots and heartbeat, /assign hands a
// client the ranked pool, a full bandwidth test runs against it, /release
// frees the lease, and the fleet is visible on /metrics.

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	swiftest "github.com/mobilebandwidth/swiftest"
	"github.com/mobilebandwidth/swiftest/internal/deploy"
	"github.com/mobilebandwidth/swiftest/internal/errdefs"
	"github.com/mobilebandwidth/swiftest/internal/fleet"
)

func buildFleetArtifact(t *testing.T) *deploy.Artifact {
	t.Helper()
	plan, err := deploy.PlanPurchase(deploy.SyntheticCatalogue(), 500, 0.075,
		deploy.PlanOptions{MinServers: 3})
	if err != nil {
		t.Fatal(err)
	}
	placements, err := deploy.PlaceServers(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := deploy.Workload{
		TestsPerDay:     20000,
		AvgTestDuration: 1200 * time.Millisecond,
		AvgBandwidth:    40,
		PeakFactor:      2,
	}
	art := deploy.NewArtifact(w, plan, placements)
	if err := art.Validate(); err != nil {
		t.Fatal(err)
	}
	return art
}

// startControlPlane serves a control plane for a fresh artifact on an
// httptest server.
func startControlPlane(t *testing.T, cfg fleet.Config) (*controlPlane, *httptest.Server) {
	t.Helper()
	if cfg.Metrics == nil {
		cfg.Metrics = swiftest.NewMetricsRegistry()
	}
	c, err := newControlPlane(buildFleetArtifact(t), cfg, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.handler(cfg.Metrics))
	t.Cleanup(ts.Close)
	return c, ts
}

// post sends an empty POST and returns the status code and body.
func post(t *testing.T, u string) (int, string) {
	t.Helper()
	resp, err := http.Post(u, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestFleetDispatchEndToEnd drives register -> heartbeat -> assign -> real
// UDP test -> release through the control plane's HTTP handlers, scraping
// the fleet metrics at the end.
func TestFleetDispatchEndToEnd(t *testing.T) {
	c, ts := startControlPlane(t, fleet.Config{PerTestMbps: 5})

	// Three real UDP servers register into the planned slots and beat.
	for _, domain := range []string{"Beijing", "Shanghai", "Guangzhou"} {
		srv, err := swiftest.NewServer("127.0.0.1:0", swiftest.ServerOptions{UplinkMbps: 50})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		q := url.Values{"addr": {srv.Addr()}, "domain": {domain}, "uplink": {"50"}}
		code, body := post(t, ts.URL+"/register?"+q.Encode())
		if code != http.StatusOK {
			t.Fatalf("register %s: HTTP %d %s", domain, code, body)
		}
		var reg registerResponse
		if err := json.Unmarshal([]byte(body), &reg); err != nil {
			t.Fatal(err)
		}
		if reg.HeartbeatMS != fleet.DefaultHeartbeatWindow.Milliseconds() {
			t.Errorf("register told the server to beat every %d ms, want %d", reg.HeartbeatMS, fleet.DefaultHeartbeatWindow.Milliseconds())
		}
		if code, body := post(t, ts.URL+"/heartbeat?id="+strconv.Itoa(reg.ID)); code != http.StatusNoContent {
			t.Fatalf("heartbeat %d: HTTP %d %s", reg.ID, code, body)
		}
	}
	live := 0
	for _, s := range c.d.Registry().Servers() {
		if s.State == fleet.StateLive {
			live++
		}
	}
	if live != 3 {
		t.Fatalf("%d live servers after registration, want 3", live)
	}

	a, err := fetchAssignment(context.Background(), ts.URL, 7, "Beijing")
	if err != nil {
		t.Fatalf("assign: %v", err)
	}
	model, err := swiftest.DefaultModel(swiftest.Tech4G)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	res, err := swiftest.TestContext(ctx, swiftest.TestOptions{
		Servers:     a.Servers,
		Model:       model,
		MaxDuration: 1500 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("TestContext against dispatched pool: %v", err)
	}
	if res.BandwidthMbps <= 0 {
		t.Errorf("dispatched test measured %.1f Mbps, want > 0", res.BandwidthMbps)
	}
	releaseAssignment(ts.URL, a)
	if s := c.d.Registry().Servers()[a.LeaseServer]; s.Sessions != 0 {
		t.Errorf("server %d holds %d sessions after release, want 0", a.LeaseServer, s.Sessions)
	}

	// The fleet series must be visible on a real /metrics scrape.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, name := range []string{
		"swiftest_fleet_servers_live 3",
		"swiftest_fleet_servers_draining 0",
		"swiftest_fleet_servers_dead 0",
		"swiftest_fleet_assignments_total 1",
		"swiftest_fleet_rejected_total 0",
	} {
		if !strings.Contains(text, name) {
			t.Errorf("metrics exposition missing %q", name)
		}
	}
}

// TestFleetDispatchNoLiveServer: a dispatcher with no registered server
// answers 503 without Retry-After, which the client reports as no reachable
// server — not as a saturated fleet worth retrying.
func TestFleetDispatchNoLiveServer(t *testing.T) {
	_, ts := startControlPlane(t, fleet.Config{PerTestMbps: 5})
	_, err := fetchAssignment(context.Background(), ts.URL, 7, "Beijing")
	if !errors.Is(err, errdefs.ErrNoReachableServer) {
		t.Errorf("assign with no live server = %v, want errdefs.ErrNoReachableServer", err)
	}
	if errors.Is(err, errdefs.ErrFleetSaturated) {
		t.Errorf("assign with no live server = %v, matches errdefs.ErrFleetSaturated", err)
	}
}

// TestFleetDispatchContextCancelled: a request whose client has gone away
// short-circuits before touching the registry, so it is neither assigned
// nor counted as a rejection.
func TestFleetDispatchContextCancelled(t *testing.T) {
	metrics := swiftest.NewMetricsRegistry()
	c, err := newControlPlane(buildFleetArtifact(t), fleet.Config{Metrics: metrics, ActivatePlanned: true}, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := httptest.NewRecorder()
	c.handler(metrics).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/assign?key=1", nil).WithContext(ctx))
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), context.Canceled.Error()) {
		t.Errorf("assign on a cancelled request = HTTP %d %q, want 503 naming %v", rec.Code, rec.Body.String(), context.Canceled)
	}
	counters := metrics.Snapshot().Counters
	if n := counters["swiftest_fleet_assignments_total"] + counters["swiftest_fleet_rejected_total"]; n != 0 {
		t.Errorf("cancelled request reached the dispatcher: %d assignments+rejections", n)
	}
}

// TestDispatchRejectsNonFiniteNumbers: /register and /assign answer 400 to
// a number that does not parse, is not finite, or is negative. A NaN claim
// that got through would leave its server's load NaN after release.
func TestDispatchRejectsNonFiniteNumbers(t *testing.T) {
	c, ts := startControlPlane(t, fleet.Config{ActivatePlanned: true})
	for _, bad := range []string{"NaN", "Inf", "+Inf", "-Inf", "-1", "1e999", "fast"} {
		q := url.Values{"addr": {"10.0.0.1:7007"}, "domain": {"Beijing"}, "uplink": {bad}}
		if code, body := post(t, ts.URL+"/register?"+q.Encode()); code != http.StatusBadRequest {
			t.Errorf("register uplink=%s: HTTP %d %s, want 400", bad, code, body)
		}
		if code, body := post(t, ts.URL+"/assign?key=1&claim="+url.QueryEscape(bad)); code != http.StatusBadRequest {
			t.Errorf("assign claim=%s: HTTP %d %s, want 400", bad, code, body)
		}
	}
	if n := len(c.d.Registry().Servers()); n != 3 {
		t.Errorf("rejected registrations changed the fleet to %d servers, want the planned 3", n)
	}

	a, err := fetchAssignment(context.Background(), ts.URL, 1, "Beijing")
	if err != nil {
		t.Fatal(err)
	}
	if code, body := post(t, ts.URL+"/assign?key=2&claim=7.5"); code != http.StatusOK {
		t.Fatalf("assign claim=7.5: HTTP %d %s", code, body)
	}
	releaseAssignment(ts.URL, a)
	for _, s := range c.d.Registry().Servers() {
		if math.IsNaN(s.LoadMbps) || math.IsInf(s.LoadMbps, 0) || s.LoadMbps < 0 {
			t.Errorf("server %d load %g Mbps, want finite and non-negative", s.ID, s.LoadMbps)
		}
	}
}
