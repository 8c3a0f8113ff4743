// Package obs is the repository's zero-dependency observability substrate:
// a metrics registry (counters, gauges, fixed-bucket histograms)
// with Prometheus text exposition and a JSON snapshot API, plus a per-test
// tracer that records structured engine events into a bounded ring and dumps
// completed tests as JSONL run-records.
//
// Two properties shape the design:
//
//   - The hot path is atomic and allocation-free. Counter.Inc,
//     Gauge.Set/Add, Histogram.Observe and Trace.Record perform no
//     allocations and take no registry-wide lock, so instrumenting the
//     per-datagram pacing loop and the 50 ms sampling loop costs a handful
//     of nanoseconds.
//
//   - Disabled instrumentation compiles to near-zero overhead. Every update
//     method is nil-receiver safe, and a nil *Registry hands out nil
//     metrics, so code writes `m.datagramsSent.Inc()` unconditionally and a
//     deployment that never asked for metrics pays only a nil check.
//
// The package is deliberately wall-clock free: nothing in obs reads
// time.Now. Trace events are stamped by the caller — the probing engine
// stamps them with Probe.Elapsed(), which is virtual time under the link
// emulator and wall time over the real UDP transport — so the same tracer
// produces identical run-record schemas in both worlds and the swiftvet
// walltime invariant holds with no exemptions.
package obs

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
)

// metricNamePattern is the Prometheus metric-name grammar.
var metricNamePattern = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// metric is the common behaviour the registry needs from each metric kind.
type metric interface {
	metricName() string
	metricHelp() string
	promType() string
}

// Registry holds named metrics and renders them for exposition. The zero
// value is not usable; call NewRegistry. A nil *Registry is the disabled
// state: its constructors return nil metrics whose update methods no-op.
type Registry struct {
	mu      sync.Mutex
	ordered []metric          // registration order, for stable exposition; guarded by mu
	byName  map[string]metric // guarded by mu
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]metric{}}
}

// lookupOrRegister implements find-or-create: registering an existing name
// returns the existing metric (so independently wired components sharing a
// registry aggregate into the same series), panicking if the kinds differ —
// that is a programmer error, caught at wiring time.
func (r *Registry) lookupOrRegister(name string, build func() metric) metric {
	if !metricNamePattern.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if existing, ok := r.byName[name]; ok {
		return existing
	}
	m := build()
	r.byName[name] = m
	r.ordered = append(r.ordered, m)
	return m
}

// Counter registers (or finds) a monotonically increasing counter. By
// Prometheus convention the name should end in "_total". Returns nil on a
// nil registry.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	m := r.lookupOrRegister(name, func() metric {
		return &Counter{name: name, help: help}
	})
	c, ok := m.(*Counter)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q re-registered as a counter but is a %s", name, m.promType()))
	}
	return c
}

// Gauge registers (or finds) a gauge. Returns nil on a nil registry.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	m := r.lookupOrRegister(name, func() metric {
		return &Gauge{name: name, help: help}
	})
	g, ok := m.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q re-registered as a gauge but is a %s", name, m.promType()))
	}
	return g
}

// Histogram registers (or finds) a fixed-bucket histogram. bounds are the
// ascending bucket upper limits; an implicit +Inf bucket is always appended.
// Re-registering a name requires identical bounds. Returns nil on a nil
// registry.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	m := r.lookupOrRegister(name, func() metric {
		return newHistogram(name, help, bounds)
	})
	h, ok := m.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q re-registered as a histogram but is a %s", name, m.promType()))
	}
	if len(h.bounds) != len(bounds) {
		panic(fmt.Sprintf("obs: histogram %q re-registered with different bounds", name))
	}
	for i, b := range bounds {
		if h.bounds[i] != b {
			panic(fmt.Sprintf("obs: histogram %q re-registered with different bounds", name))
		}
	}
	return h
}

// --- Counter ---------------------------------------------------------------

// Counter is a monotonically increasing event count. All methods are
// nil-receiver safe and allocation-free.
type Counter struct {
	v          atomic.Uint64
	name, help string
}

// Inc adds one.
//
// swiftvet:hotpath
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
//
// swiftvet:hotpath
func (c *Counter) Add(n uint64) {
	if c == nil || n == 0 {
		return
	}
	c.v.Add(n)
}

// Value reports the current count (zero on a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) metricName() string { return c.name }
func (c *Counter) metricHelp() string { return c.help }
func (c *Counter) promType() string   { return "counter" }

// --- Gauge -----------------------------------------------------------------

// Gauge is an instantaneous float64 value (stored as IEEE-754 bits for
// lock-free access). All methods are nil-receiver safe and allocation-free.
type Gauge struct {
	bits       atomic.Uint64
	name, help string
}

// Set replaces the gauge value.
//
// swiftvet:hotpath
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add shifts the gauge by delta (negative deltas decrease it).
//
// swiftvet:hotpath
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value reports the current gauge value (zero on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

func (g *Gauge) metricName() string { return g.name }
func (g *Gauge) metricHelp() string { return g.help }
func (g *Gauge) promType() string   { return "gauge" }

// --- Histogram -------------------------------------------------------------

// Histogram counts observations into fixed buckets, stored as per-bucket
// (non-cumulative) atomic counts. Observe is atomic, lock-free and
// allocation-free. All methods are nil-receiver safe.
type Histogram struct {
	name, help string
	bounds     []float64 // ascending upper limits; bucket i counts v <= bounds[i]
	counts     []atomic.Uint64
	sumBits    atomic.Uint64 // float64 bits of the running sum
	count      atomic.Uint64
}

func newHistogram(name, help string, bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not strictly ascending at index %d", name, i))
		}
	}
	return &Histogram{
		name:   name,
		help:   help,
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value. NaN observations are dropped (they carry no
// bucket and would poison the sum).
//
// swiftvet:hotpath
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v: its bucket
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count reports the number of observations (zero on a nil histogram).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reports the sum of observations (zero on a nil histogram).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Snapshot captures the histogram state. Concurrent Observe calls may land
// between the field reads; quiesce writers first when exact consistency
// matters (end-of-run dumps).
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.counts)),
		Sum:    h.Sum(),
		Count:  h.Count(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

func (h *Histogram) metricName() string { return h.name }
func (h *Histogram) metricHelp() string { return h.help }
func (h *Histogram) promType() string   { return "histogram" }

// HistogramSnapshot is a point-in-time copy of a histogram, the JSON
// exposition form.
type HistogramSnapshot struct {
	// Bounds are the ascending bucket upper limits; Counts has one extra
	// trailing element for the implicit +Inf bucket. Counts are per-bucket,
	// not cumulative.
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Sum    float64   `json:"sum"`
	Count  uint64    `json:"count"`
}
