package swiftest_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	swiftest "github.com/mobilebandwidth/swiftest"
)

// parseRunRecord validates a JSONL run-record: a schema-tagged header line
// followed by parseable event lines. It returns the header meta and the
// event kinds in order.
func parseRunRecord(t *testing.T, r io.Reader) (map[string]string, []string) {
	t.Helper()
	sc := bufio.NewScanner(r)
	if !sc.Scan() {
		t.Fatal("empty run-record")
	}
	var header struct {
		Type   string            `json:"type"`
		Schema string            `json:"schema"`
		Events int               `json:"events"`
		Meta   map[string]string `json:"meta"`
	}
	if err := json.Unmarshal(sc.Bytes(), &header); err != nil {
		t.Fatalf("header does not parse: %v", err)
	}
	if header.Type != "meta" || header.Schema != "swiftest-run-record/v2" {
		t.Fatalf("bad header: %+v", header)
	}
	var kinds []string
	for sc.Scan() {
		var ev struct {
			Type string `json:"type"`
			AtUS int64  `json:"at_us"`
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("event line does not parse: %v (%s)", err, sc.Text())
		}
		if ev.Type != "event" || ev.Kind == "" {
			t.Fatalf("bad event line: %s", sc.Text())
		}
		kinds = append(kinds, ev.Kind)
	}
	if len(kinds) != header.Events {
		t.Fatalf("header says %d events, record has %d", header.Events, len(kinds))
	}
	return header.Meta, kinds
}

func hasKind(kinds []string, want string) bool {
	for _, k := range kinds {
		if k == want {
			return true
		}
	}
	return false
}

// TestEmulatedRunRecordAndMetrics runs one virtual-time test with full
// observability attached and checks the run-record and the engine metrics.
func TestEmulatedRunRecordAndMetrics(t *testing.T) {
	model, err := swiftest.DefaultModel(swiftest.Tech5G)
	if err != nil {
		t.Fatal(err)
	}
	trace := swiftest.NewTrace()
	reg := swiftest.NewMetricsRegistry()
	res, err := swiftest.SimulateTestContext(
		context.Background(),
		swiftest.LinkConfig{CapacityMbps: 300, Fluctuation: 0.01, Seed: 7},
		model,
		swiftest.SimulateOptions{SessionOptions: swiftest.SessionOptions{Trace: trace, Metrics: reg}},
	)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	meta, kinds := parseRunRecord(t, &buf)
	if meta["source"] != "sim" || meta["capacity_mbps"] != "300" || meta["seed"] != "7" {
		t.Errorf("meta = %v", meta)
	}
	// Like a live record, an emulated one opens with the server joining,
	// then the initial rate.
	if len(kinds) < 2 || kinds[0] != "server_add" || kinds[1] != "rate_init" {
		t.Errorf("first events = %q, want server_add then rate_init", kinds[:min(len(kinds), 2)])
	}
	if !hasKind(kinds, "sample") || !hasKind(kinds, "converge_check") {
		t.Errorf("missing core event kinds: %v", kinds)
	}
	if res.Converged && !hasKind(kinds, "converged") {
		t.Errorf("no converged event on a converged test: %v", kinds)
	}
	// The v2 record closes with the estimator family and the BDP regime.
	if !hasKind(kinds, "estimate") || kinds[len(kinds)-1] != "bdp_regime" {
		t.Errorf("v2 tail events missing (estimates + bdp_regime): %v", kinds)
	}

	snap := reg.Snapshot()
	if snap.Counters["swiftest_engine_tests_total"] != 1 {
		t.Errorf("tests counter = %d", snap.Counters["swiftest_engine_tests_total"])
	}
	if res.Converged && snap.Counters["swiftest_engine_tests_converged_total"] != 1 {
		t.Errorf("converged counter = %d", snap.Counters["swiftest_engine_tests_converged_total"])
	}
}

// TestLoopbackRunRecordAndMetrics runs a real UDP test on the loopback with
// a shared registry on both sides, then scrapes the registry over HTTP and
// checks that the documented engine and server series appear in the
// Prometheus text.
func TestLoopbackRunRecordAndMetrics(t *testing.T) {
	reg := swiftest.NewMetricsRegistry()
	srv, err := swiftest.NewServer("127.0.0.1:0", swiftest.ServerOptions{
		UplinkMbps: 60,
		Metrics:    reg,
	})
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
	trace := swiftest.NewTrace()
	res, err := swiftest.TestContext(context.Background(), swiftest.TestOptions{
		SessionOptions: swiftest.SessionOptions{Trace: trace, Metrics: reg},
		Servers:        []swiftest.ServerAddr{{Addr: srv.Addr(), UplinkMbps: 60}},
		Model:          model,
		MaxDuration:    4 * time.Second,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BandwidthMbps <= 0 {
		t.Fatal("no bandwidth estimate")
	}

	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	meta, kinds := parseRunRecord(t, &buf)
	if meta["source"] != "udp" || meta["test_id"] == "" || meta["started_unix_ms"] == "" {
		t.Errorf("meta = %v", meta)
	}
	if !hasKind(kinds, "server_add") {
		t.Errorf("no server_add event in a live run-record: %v", kinds)
	}
	if !hasKind(kinds, "sample") {
		t.Errorf("no sample events: %v", kinds)
	}

	// Scrape the shared registry exactly as Prometheus would.
	ts := httptest.NewServer(reg.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	for _, name := range []string{
		"swiftest_engine_tests_total",
		"swiftest_engine_bandwidth_mbps_count",
		"swiftest_server_sessions_started_total",
		"swiftest_server_sessions_active",
		"swiftest_server_datagrams_sent_total",
		"swiftest_server_bytes_sent_total",
		"swiftest_server_uplink_mbps",
	} {
		if !strings.Contains(text, "\n"+name+" ") && !strings.HasPrefix(text, name+" ") {
			t.Errorf("metric %s missing from exposition", name)
		}
	}
	// Both sides really aggregated into the one registry.
	snap := reg.Snapshot()
	if snap.Counters["swiftest_engine_tests_total"] != 1 {
		t.Errorf("engine tests = %d", snap.Counters["swiftest_engine_tests_total"])
	}
	if snap.Counters["swiftest_server_sessions_started_total"] == 0 {
		t.Error("server saw no sessions")
	}
	if snap.Counters["swiftest_server_datagrams_sent_total"] == 0 {
		t.Error("server sent no datagrams")
	}
}
