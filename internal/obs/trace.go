package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// DefaultTraceCapacity bounds a tracer's event ring when the caller passes
// zero. A 5 s test at 50 ms sampling emits ~100 sample events plus a handful
// of control events, so 4096 holds every realistic test with room for
// pathological escalation storms.
const DefaultTraceCapacity = 4096

// RunRecordSchema names the JSONL run-record layout emitted by WriteJSONL,
// carried in the header line so downstream tooling can dispatch on it. v2
// adds the estimator-family and BDP-regime event kinds (EventRTTSample,
// EventEstimate, EventRegime) emitted by the protocol-v2
// engine; the line layout itself is unchanged, so v1 consumers can read v2
// records by ignoring the new kinds.
const RunRecordSchema = "swiftest-run-record/v2"

// Trace kinds emitted by the probing engine and the transport. Collected
// here so run-record consumers have one vocabulary to dispatch on.
const (
	EventRateInit      = "rate_init"       // value = initial probing rate (Mbps)
	EventSample        = "sample"          // value = 50 ms sample (Mbps), aux = probing rate
	EventConvergeCheck = "converge_check"  // value = window spread ratio, aux = threshold
	EventConverged     = "converged"       // value = reported bandwidth, aux = spread
	EventEscalate      = "escalate"        // value = new rate, aux = old rate, note = mode|headroom
	EventTimeout       = "timeout"         // value = trailing-window bandwidth at the deadline
	EventProbeEnd      = "probe_exhausted" // the probe stopped producing samples
	EventServerAdd     = "server_add"      // aux = server uplink (Mbps), note = server address
	EventServerRetry   = "server_retry"    // value = attempt number, note = server address
	EventServerLost    = "server_lost"     // value = lost rate share (Mbps), note = server address
	EventAborted       = "aborted"         // the test's context was cancelled; note = cause
	EventError         = "error"           // note = error text
)

// Trace kinds added by the protocol-v2 estimator pipeline (schema v2).
const (
	EventRTTSample = "rtt_sample" // value = RTT (ms), aux = concurrent sample (Mbps)
	EventEstimate  = "estimate"   // value = estimate (Mbps), note = estimator name
	EventRegime    = "bdp_regime" // value = numeric regime code, note = regime name
	EventEarlyStop = "early_stop" // value = reported bandwidth, aux = model score, note = policy note
)

// Trace kinds emitted by the RAN profile state machine (package
// ranprofile). Timestamps are caller-stamped virtual time, like every other
// event.
const (
	EventLinkStateChange = "link_state_change" // value = new state capacity (Mbps), aux = dwell of the left state (s), note = "from->to"
	EventHandover        = "handover"          // value = new cell capacity factor, aux = new cell RTT factor, note = profile name
)

// Trace kinds emitted by the fleet dispatch control plane.
const (
	EventAssign     = "assign"      // value = client key, aux = server load (sessions), note = server address
	EventReject     = "reject"      // value = client key, aux = retry-after hint (seconds)
	EventServerDead = "server_dead" // value = silent heartbeat windows, note = server address
	EventDrain      = "drain"       // value = in-flight sessions at drain start, note = server address
)

// Event is one structured trace record. At is elapsed time since the start
// of the test, stamped by the caller — virtual time under the emulator, wall
// time over the real transport — so the tracer itself never reads a clock.
type Event struct {
	At    time.Duration
	Kind  string
	Value float64
	Aux   float64
	Note  string
}

// Trace records the structured events of one bandwidth test into a bounded
// ring: when the ring fills, the oldest events are evicted and counted as
// dropped, so a runaway test cannot grow memory without bound. All methods
// are nil-receiver safe; recording into a nil trace is a no-op costing one
// nil check, and Record performs no allocations.
type Trace struct {
	capacity int

	mu      sync.Mutex
	meta    []metaKV // guarded by mu
	events  []Event  // ring storage; guarded by mu
	next    int      // overwrite cursor once full; guarded by mu
	full    bool     // guarded by mu
	dropped uint64   // events evicted by ring wrap; guarded by mu
}

type metaKV struct{ key, value string }

// NewTrace returns a tracer bounded to capacity events (zero selects
// DefaultTraceCapacity).
func NewTrace(capacity int) *Trace {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Trace{capacity: capacity, events: make([]Event, 0, capacity)}
}

// Record appends one event stamped at elapsed time at. The backing ring is
// presized at construction; steady-state records reuse it without growing.
//
// swiftvet:hotpath
func (t *Trace) Record(at time.Duration, kind string, value, aux float64, note string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.events) < t.capacity {
		t.events = append(t.events, Event{At: at, Kind: kind, Value: value, Aux: aux, Note: note})
	} else {
		t.events[t.next] = Event{At: at, Kind: kind, Value: value, Aux: aux, Note: note}
		t.next = (t.next + 1) % t.capacity
		t.full = true
		t.dropped++
	}
	t.mu.Unlock()
}

// SetMeta attaches a key/value pair to the run-record header (test ID,
// source, link parameters...). Re-setting a key overwrites it.
func (t *Trace) SetMeta(key, value string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.meta {
		if t.meta[i].key == key {
			t.meta[i].value = value
			return
		}
	}
	t.meta = append(t.meta, metaKV{key, value})
}

// Len reports the number of retained events.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Events returns the retained events in recording order.
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.eventsLocked()
}

func (t *Trace) eventsLocked() []Event {
	out := make([]Event, 0, len(t.events))
	if t.full {
		out = append(out, t.events[t.next:]...)
		out = append(out, t.events[:t.next]...)
	} else {
		out = append(out, t.events...)
	}
	return out
}

// Reset clears events, metadata and the drop count so the tracer can record
// another test.
func (t *Trace) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events = t.events[:0]
	t.meta = nil
	t.next = 0
	t.full = false
	t.dropped = 0
}

// runRecordHeader is the first JSONL line of a run-record.
type runRecordHeader struct {
	Type    string            `json:"type"` // "meta"
	Schema  string            `json:"schema"`
	Events  int               `json:"events"`
	Dropped uint64            `json:"dropped"`
	Meta    map[string]string `json:"meta,omitempty"`
}

// runRecordEvent is one event line of a run-record. Elapsed time is emitted
// as integer microseconds, exact for both the emulator's 10 ms ticks and
// wall-clock stamps.
type runRecordEvent struct {
	Type  string  `json:"type"` // "event"
	AtUS  int64   `json:"at_us"`
	Kind  string  `json:"kind"`
	Value float64 `json:"value"`
	Aux   float64 `json:"aux,omitempty"`
	Note  string  `json:"note,omitempty"`
}

// WriteJSONL dumps the trace as a run-record artifact: a header line
// followed by one JSON object per event. The layout is RunRecordSchema.
func (t *Trace) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	events := t.eventsLocked()
	var meta map[string]string
	if len(t.meta) > 0 {
		meta = make(map[string]string, len(t.meta))
		for _, kv := range t.meta {
			meta[kv.key] = kv.value
		}
	}
	dropped := t.dropped
	t.mu.Unlock()

	enc := json.NewEncoder(w)
	if err := enc.Encode(runRecordHeader{
		Type:    "meta",
		Schema:  RunRecordSchema,
		Events:  len(events),
		Dropped: dropped,
		Meta:    meta,
	}); err != nil {
		return err
	}
	for _, e := range events {
		if err := enc.Encode(runRecordEvent{
			Type:  "event",
			AtUS:  e.At.Microseconds(),
			Kind:  e.Kind,
			Value: e.Value,
			Aux:   e.Aux,
			Note:  e.Note,
		}); err != nil {
			return err
		}
	}
	return nil
}
