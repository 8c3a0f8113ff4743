package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	c.Add(0)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g := reg.Gauge("g", "a gauge")
	g.Set(2.5)
	g.Add(-1)
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 1.5 {
		t.Errorf("gauge = %g, want 1.5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h", "a histogram", []float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 10} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// le=1 holds {0.5, 1}; le=2 holds {1.5, 2}; le=5 holds {3}; +Inf holds {10}.
	want := []uint64{2, 2, 1, 1}
	for i, c := range s.Counts {
		if c != want[i] {
			t.Errorf("bucket %d = %d, want %d (counts %v)", i, c, want[i], s.Counts)
		}
	}
	if s.Count != 6 || s.Sum != 18 {
		t.Errorf("count=%d sum=%g, want 6 and 18", s.Count, s.Sum)
	}
	h.Observe(nan())
	if h.Count() != 6 {
		t.Error("NaN observation counted")
	}
}

func nan() float64 {
	var zero float64
	return zero / zero
}

func TestFindOrCreateSharesSeries(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("shared_total", "")
	b := reg.Counter("shared_total", "")
	if a != b {
		t.Fatal("re-registering a counter did not return the same series")
	}
	defer func() {
		if recover() == nil {
			t.Error("kind mismatch did not panic")
		}
	}()
	reg.Gauge("shared_total", "")
}

func TestHistogramBoundsMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram("h", "", []float64{1, 2})
	defer func() {
		if recover() == nil {
			t.Error("bounds mismatch did not panic")
		}
	}()
	reg.Histogram("h", "", []float64{1, 3})
}

func TestInvalidMetricNamePanics(t *testing.T) {
	reg := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Error("invalid name did not panic")
		}
	}()
	reg.Counter("bad name", "")
}

// promLine matches one Prometheus text sample line.
var promLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{le="([^"]+)"\})? (-?[0-9]+(\.[0-9eE+-]+)?|[0-9.]+e[+-][0-9]+|\+Inf|-Inf|NaN)$`)

// TestPrometheusTextValidity: every non-comment line of the exposition
// parses, histogram buckets are cumulative and end at +Inf == count.
func TestPrometheusTextValidity(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("tests_total", "runs").Add(3)
	reg.Gauge("active", "gauge with\nnewline and \\ backslash").Set(-1.25)
	h := reg.Histogram("dur_seconds", "durations", []float64{0.5, 1, 2})
	for _, v := range []float64{0.1, 0.7, 3} {
		h.Observe(v)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	var bucketCum []uint64
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			if strings.Contains(line, "\n") {
				t.Errorf("unescaped newline in %q", line)
			}
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("line %q does not parse as a Prometheus sample", line)
		}
		if strings.HasPrefix(line, "dur_seconds_bucket") {
			v, err := strconv.ParseUint(line[strings.LastIndex(line, " ")+1:], 10, 64)
			if err != nil {
				t.Fatalf("bucket line %q: %v", line, err)
			}
			bucketCum = append(bucketCum, v)
		}
	}
	want := []uint64{1, 2, 2, 3} // cumulative over per-bucket {1,1,0,1}
	if len(bucketCum) != len(want) {
		t.Fatalf("bucket lines = %v, want %v", bucketCum, want)
	}
	for i := range want {
		if bucketCum[i] != want[i] {
			t.Errorf("cumulative bucket %d = %d, want %d", i, bucketCum[i], want[i])
		}
	}
	if !strings.Contains(text, "dur_seconds_count 3") || !strings.Contains(text, `le="+Inf"} 3`) {
		t.Errorf("+Inf bucket or count wrong:\n%s", text)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c_total", "").Add(7)
	reg.Gauge("g", "").Set(1.5)
	reg.Histogram("h", "", []float64{1}).Observe(0.5)

	data, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["c_total"] != 7 || back.Gauges["g"] != 1.5 {
		t.Errorf("round trip lost values: %+v", back)
	}
	if h := back.Histograms["h"]; h.Count != 1 || len(h.Counts) != 2 {
		t.Errorf("histogram round trip: %+v", h)
	}
}

func TestHandler(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c_total", "help").Inc()

	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	res, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := readAll(res)
	if res.StatusCode != 200 || !strings.Contains(body, "c_total 1") {
		t.Errorf("text exposition: status=%d body=%q", res.StatusCode, body)
	}
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}

	res, err = srv.Client().Get(srv.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = readAll(res)
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("JSON exposition did not parse: %v\n%s", err, body)
	}
	if snap.Counters["c_total"] != 1 {
		t.Errorf("JSON snapshot: %+v", snap)
	}

	res, err = srv.Client().Post(srv.URL+"/metrics", "text/plain", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != 405 {
		t.Errorf("POST status = %d, want 405", res.StatusCode)
	}
}

func readAll(res *http.Response) (string, error) {
	defer res.Body.Close()
	data, err := io.ReadAll(res.Body)
	return string(data), err
}

// TestDisabledInstrumentationZeroAllocs asserts the disabled fast path: a
// nil registry hands out nil metrics, and every update on them — and on a
// nil tracer — performs zero allocations. This is the contract that lets
// the engine and transport instrument unconditionally.
func TestDisabledInstrumentationZeroAllocs(t *testing.T) {
	var reg *Registry // disabled
	c := reg.Counter("c_total", "")
	g := reg.Gauge("g", "")
	h := reg.Histogram("h", "", []float64{1, 2, 5})
	var tr *Trace
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry handed out live metrics")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(1)
		g.Add(-0.5)
		h.Observe(2.5)
		tr.Record(0, EventSample, 1, 2, "")
		tr.SetMeta("k", "v")
	})
	if allocs != 0 {
		t.Fatalf("disabled instrumentation allocates %.1f per op, want 0", allocs)
	}
}

// TestEnabledHotPathZeroAllocs asserts the enabled hot path allocates
// nothing either: updates are pure atomics and the trace ring is
// preallocated.
func TestEnabledHotPathZeroAllocs(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "")
	g := reg.Gauge("g", "")
	h := reg.Histogram("h", "", []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512})
	tr := NewTrace(64)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Add(1)
		h.Observe(37)
		tr.Record(50, EventSample, 25, 25, "")
	})
	if allocs != 0 {
		t.Fatalf("enabled hot path allocates %.1f per op, want 0", allocs)
	}
}

// TestConcurrentUpdatesAndExposition exercises the lock-free hot path under
// the race detector while a reader renders the exposition.
func TestConcurrentUpdatesAndExposition(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "")
	h := reg.Histogram("h", "", []float64{1, 2, 5})
	tr := NewTrace(128)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				c.Inc()
				h.Observe(float64(i % 7))
				tr.Record(0, EventSample, float64(i), 0, "")
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		_ = reg.Snapshot()
		_ = tr.Events()
	}
	wg.Wait()
	if c.Value() != 8000 || h.Count() != 8000 {
		t.Errorf("lost updates: counter=%d hist=%d", c.Value(), h.Count())
	}
}
