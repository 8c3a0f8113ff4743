package obs

// Benchmarks proving the instrumentation contract: atomic hot paths with
// zero allocations per update, and a disabled (nil) path that costs only a
// nil check. CI runs these as a compile-and-run smoke alongside the
// generation/aggregation benches.

import (
	"testing"
	"time"
)

func BenchmarkObsCounterInc(b *testing.B) {
	reg := NewRegistry()
	c := reg.Counter("bench_total", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkObsCounterIncParallel(b *testing.B) {
	reg := NewRegistry()
	c := reg.Counter("bench_total", "")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkObsGaugeSet(b *testing.B) {
	reg := NewRegistry()
	g := reg.Gauge("bench", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Set(float64(i))
	}
}

func BenchmarkObsHistogramObserve(b *testing.B) {
	reg := NewRegistry()
	h := reg.Histogram("bench", "", []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i & 1023))
	}
}

func BenchmarkObsTraceRecord(b *testing.B) {
	tr := NewTrace(DefaultTraceCapacity)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Record(time.Duration(i), EventSample, 25, 25, "")
	}
}

// BenchmarkObsDisabled measures the nil fast path the engine and transport
// pay when no registry/tracer is configured — the acceptance criterion for
// "a disabled registry compiles to near-zero overhead".
func BenchmarkObsDisabled(b *testing.B) {
	var reg *Registry
	c := reg.Counter("bench_total", "")
	g := reg.Gauge("bench", "")
	h := reg.Histogram("bench_h", "", []float64{1})
	var tr *Trace
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
		g.Set(1)
		h.Observe(1)
		tr.Record(0, EventSample, 1, 1, "")
	}
}
