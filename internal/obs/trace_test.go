package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestTraceRecordsInOrder(t *testing.T) {
	tr := NewTrace(0)
	tr.Record(0, EventRateInit, 25, 0, "")
	tr.Record(50*time.Millisecond, EventSample, 24.8, 25, "")
	tr.Record(100*time.Millisecond, EventEscalate, 80, 25, "mode")

	ev := tr.Events()
	if len(ev) != 3 || tr.Len() != 3 {
		t.Fatalf("events = %d, want 3", len(ev))
	}
	if ev[0].Kind != EventRateInit || ev[2].Note != "mode" {
		t.Errorf("order lost: %+v", ev)
	}
	if tr.dropped != 0 {
		t.Errorf("dropped = %d", tr.dropped)
	}
}

func TestTraceRingEvictsOldest(t *testing.T) {
	tr := NewTrace(4)
	for i := 0; i < 10; i++ {
		tr.Record(time.Duration(i)*time.Millisecond, EventSample, float64(i), 0, "")
	}
	ev := tr.Events()
	if len(ev) != 4 {
		t.Fatalf("retained %d events, want 4", len(ev))
	}
	if ev[0].Value != 6 || ev[3].Value != 9 {
		t.Errorf("ring did not keep the newest events: %+v", ev)
	}
	if tr.dropped != 6 {
		t.Errorf("dropped = %d, want 6", tr.dropped)
	}
}

func TestTraceReset(t *testing.T) {
	tr := NewTrace(2)
	tr.SetMeta("source", "sim")
	for i := 0; i < 5; i++ {
		tr.Record(0, EventSample, 0, 0, "")
	}
	tr.Reset()
	if tr.Len() != 0 || tr.dropped != 0 {
		t.Errorf("reset left len=%d dropped=%d", tr.Len(), tr.dropped)
	}
	tr.Record(0, EventSample, 1, 0, "")
	if got := tr.Events(); len(got) != 1 || got[0].Value != 1 {
		t.Errorf("post-reset events: %+v", got)
	}
}

func TestTraceSetMetaOverwrites(t *testing.T) {
	tr := NewTrace(0)
	tr.SetMeta("source", "sim")
	tr.SetMeta("source", "udp")
	tr.SetMeta("test_id", "7")
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var header struct {
		Meta map[string]string `json:"meta"`
	}
	first, _, _ := strings.Cut(buf.String(), "\n")
	if err := json.Unmarshal([]byte(first), &header); err != nil {
		t.Fatal(err)
	}
	if header.Meta["source"] != "udp" || header.Meta["test_id"] != "7" {
		t.Errorf("meta = %v", header.Meta)
	}
}

// TestWriteJSONLRunRecord validates the run-record artifact: a schema-tagged
// header line, then one parseable JSON object per event with exact
// microsecond stamps.
func TestWriteJSONLRunRecord(t *testing.T) {
	tr := NewTrace(0)
	tr.SetMeta("source", "sim")
	tr.Record(0, EventRateInit, 25, 0, "")
	tr.Record(150*time.Millisecond, EventConverged, 247.3, 0.021, "")

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d, want 3 (header + 2 events)", len(lines))
	}
	var header struct {
		Type    string `json:"type"`
		Schema  string `json:"schema"`
		Events  int    `json:"events"`
		Dropped uint64 `json:"dropped"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &header); err != nil {
		t.Fatalf("header does not parse: %v", err)
	}
	if header.Type != "meta" || header.Schema != RunRecordSchema || header.Events != 2 {
		t.Errorf("header = %+v", header)
	}
	var ev struct {
		Type  string  `json:"type"`
		AtUS  int64   `json:"at_us"`
		Kind  string  `json:"kind"`
		Value float64 `json:"value"`
		Aux   float64 `json:"aux"`
	}
	if err := json.Unmarshal([]byte(lines[2]), &ev); err != nil {
		t.Fatalf("event does not parse: %v", err)
	}
	if ev.Type != "event" || ev.AtUS != 150000 || ev.Kind != EventConverged || ev.Aux != 0.021 {
		t.Errorf("event = %+v", ev)
	}
}

func TestNilTraceIsInert(t *testing.T) {
	var tr *Trace
	tr.Record(0, EventSample, 1, 2, "x")
	tr.SetMeta("k", "v")
	tr.Reset()
	if tr.Len() != 0 || tr.Events() != nil {
		t.Error("nil trace not inert")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil trace wrote %q (err %v)", buf.String(), err)
	}
}
