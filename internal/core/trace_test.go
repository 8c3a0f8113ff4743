package core

import (
	"context"
	"testing"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/linksim"
	"github.com/mobilebandwidth/swiftest/internal/obs"
)

// TestTraceEmissionOverSimProbe runs one converging test under the emulator
// and checks the run-record invariants: virtual timestamps, one sample event
// per collected sample, rate_init first, converged last, and escalate events
// matching RateChanges.
func TestTraceEmissionOverSimProbe(t *testing.T) {
	l := quietLink(790, 9)
	p := NewSimProbe(l)
	defer p.Close()
	tr := obs.NewTrace(0)
	reg := obs.NewRegistry()
	res, err := RunContext(context.Background(), p, Config{Model: model5G(), Trace: tr, Metrics: NewEngineMetrics(reg)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("test did not converge; trace assertions assume convergence")
	}

	ev := tr.Events()
	if len(ev) == 0 {
		t.Fatal("no trace events")
	}
	if ev[0].Kind != obs.EventRateInit || ev[0].Value != res.InitialRate {
		t.Errorf("first event = %+v, want rate_init at %g", ev[0], res.InitialRate)
	}
	// Schema v2: the record ends with the estimator family and the BDP
	// regime, after the engine's converged event.
	last := ev[len(ev)-1]
	if last.Kind != obs.EventRegime || last.Note != res.Regime.String() {
		t.Errorf("last event = %+v, want bdp_regime %q", last, res.Regime.String())
	}
	var converged *obs.Event
	for i := range ev {
		if ev[i].Kind == obs.EventConverged {
			converged = &ev[i]
		}
	}
	if converged == nil || converged.Value != res.Bandwidth {
		t.Errorf("converged event = %+v, want value %g", converged, res.Bandwidth)
	}

	var samples, escalates, checks, estimates int
	prevAt := time.Duration(-1)
	for _, e := range ev {
		if e.At < prevAt {
			t.Fatalf("timestamps not monotone: %v after %v", e.At, prevAt)
		}
		prevAt = e.At
		switch e.Kind {
		case obs.EventSample:
			samples++
		case obs.EventEscalate:
			escalates++
			if e.Value <= e.Aux {
				t.Errorf("escalate to %g from %g is not an increase", e.Value, e.Aux)
			}
			if e.Note != "mode" && e.Note != "headroom" {
				t.Errorf("escalate note = %q", e.Note)
			}
		case obs.EventConvergeCheck:
			checks++
			if e.Aux != 0.03 {
				t.Errorf("converge_check threshold = %g, want 0.03", e.Aux)
			}
		case obs.EventEstimate:
			estimates++
		}
	}
	if samples != len(res.Samples) {
		t.Errorf("sample events = %d, want %d", samples, len(res.Samples))
	}
	if escalates != res.RateChanges {
		t.Errorf("escalate events = %d, want %d", escalates, res.RateChanges)
	}
	if checks == 0 {
		t.Error("no converge_check events")
	}
	if estimates != 3 {
		t.Errorf("estimate events = %d, want 3 (trimmed_mean, sustained_peak, p90_p80)", estimates)
	}
	// The emulator stamps virtual time: the last event lands exactly at the
	// reported virtual duration.
	if last.At != res.Duration {
		t.Errorf("last event at %v, want virtual duration %v", last.At, res.Duration)
	}

	snap := reg.Snapshot()
	if snap.Counters["swiftest_engine_tests_total"] != 1 ||
		snap.Counters["swiftest_engine_tests_converged_total"] != 1 ||
		snap.Counters["swiftest_engine_tests_timeout_total"] != 0 {
		t.Errorf("outcome counters wrong: %v", snap.Counters)
	}
	if got := snap.Counters["swiftest_engine_rate_escalations_total"]; got != uint64(res.RateChanges) {
		t.Errorf("escalation counter = %d, want %d", got, res.RateChanges)
	}
	if h := snap.Histograms["swiftest_engine_bandwidth_mbps"]; h.Count != 1 {
		t.Errorf("bandwidth histogram count = %d, want 1", h.Count)
	}
}

func TestTraceTimeoutEvent(t *testing.T) {
	tr := obs.NewTrace(0)
	reg := obs.NewRegistry()
	// A 40% fluctuation link can never pass the 3% criterion.
	noisy := quietLinkFluct(200, 0.4, 17)
	pn := NewSimProbe(noisy)
	defer pn.Close()
	res, err := RunContext(context.Background(), pn, Config{Model: model5G(), MaxDuration: 1 * time.Second,
		Trace: tr, Metrics: NewEngineMetrics(reg)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Skip("noisy link converged; cannot exercise the timeout path")
	}
	ev := tr.Events()
	var timeout *obs.Event
	for i := range ev {
		if ev[i].Kind == obs.EventTimeout {
			timeout = &ev[i]
		}
	}
	if timeout == nil || timeout.Value != res.Bandwidth {
		t.Errorf("timeout event = %+v, want value %g", timeout, res.Bandwidth)
	}
	snap := reg.Snapshot()
	if snap.Counters["swiftest_engine_tests_timeout_total"] != 1 {
		t.Errorf("timeout counter = %d, want 1", snap.Counters["swiftest_engine_tests_timeout_total"])
	}
}

// TestTraceDeterministicAcrossRuns: under the emulator, two same-seed tests
// must produce byte-identical event streams.
func TestTraceDeterministicAcrossRuns(t *testing.T) {
	record := func() []obs.Event {
		l := quietLink(333, 23)
		p := NewSimProbe(l)
		defer p.Close()
		tr := obs.NewTrace(0)
		if _, err := RunContext(context.Background(), p, Config{Model: model5G(), Trace: tr}); err != nil {
			t.Fatal(err)
		}
		return tr.Events()
	}
	a, b := record(), record()
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestTraceRingBoundsUnderLongRun: a tiny ring must cap memory and count
// drops rather than grow.
func TestTraceRingBoundsUnderLongRun(t *testing.T) {
	l := quietLinkFluct(200, 0.4, 29)
	p := NewSimProbe(l)
	defer p.Close()
	tr := obs.NewTrace(8)
	if _, err := RunContext(context.Background(), p, Config{Model: model5G(), MaxDuration: 2 * time.Second, Trace: tr}); err != nil {
		t.Fatal(err)
	}
	if tr.Len() > 8 {
		t.Errorf("ring retained %d events, capacity 8", tr.Len())
	}
	if evs := tr.Events(); len(evs) == 0 || evs[0].Kind == obs.EventRateInit {
		t.Error("long run on a tiny ring must drop its earliest events")
	}
}

func TestNilTraceAndMetricsUnchangedResult(t *testing.T) {
	run := func(tr *obs.Trace, m *EngineMetrics) Result {
		l := quietLink(300, 31)
		p := NewSimProbe(l)
		defer p.Close()
		res, err := RunContext(context.Background(), p, Config{Model: model5G(), Trace: tr, Metrics: m})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(nil, nil)
	traced := run(obs.NewTrace(0), NewEngineMetrics(obs.NewRegistry()))
	if plain.Bandwidth != traced.Bandwidth || plain.Duration != traced.Duration ||
		plain.RateChanges != traced.RateChanges {
		t.Error("instrumentation changed the engine's result")
	}
}

func quietLinkFluct(capMbps, fluct float64, seed int64) *linksim.Link {
	return linksim.MustNew(linksim.Config{
		CapacityMbps: capMbps,
		RTT:          30 * time.Millisecond,
		Fluctuation:  fluct,
	}, seed)
}
