package loadgen

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/deploy"
	"github.com/mobilebandwidth/swiftest/internal/faults"
	"github.com/mobilebandwidth/swiftest/internal/obs"
)

// plannerFleet solves a real §5.2 purchase plan sized for requiredMbps with
// the geographic minimum-server constraint, like `swiftest plan` does.
func plannerFleet(t testing.TB, requiredMbps float64, minServers int) (deploy.Plan, []deploy.Placement) {
	t.Helper()
	plan, err := deploy.PlanPurchase(deploy.SyntheticCatalogue(), requiredMbps, 0.075, deploy.PlanOptions{MinServers: minServers})
	if err != nil {
		t.Fatalf("PlanPurchase: %v", err)
	}
	placements, err := deploy.PlaceServers(plan, nil)
	if err != nil {
		t.Fatalf("PlaceServers: %v", err)
	}
	return plan, placements
}

func smallPlan(mbps float64, count int) deploy.Plan {
	return deploy.Plan{
		Purchases: []deploy.Purchase{{Config: deploy.ServerConfig{BandwidthMbps: mbps}, Count: count}},
		TotalMbps: mbps * float64(count),
	}
}

// TestSustainsFiveThousandConcurrent is the headline acceptance run: a
// planner-derived three-server fleet carries ≥5000 concurrent emulated
// clients through the diurnal peak, in virtual time, with minimal shedding.
func TestSustainsFiveThousandConcurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-thousand-client run")
	}
	plan, placements := plannerFleet(t, 5500, 3)
	if plan.Servers() < 3 {
		t.Fatalf("planner produced %d servers, want ≥3", plan.Servers())
	}
	reg := obs.NewRegistry()
	rep, err := Run(context.Background(), Config{
		Plan:           plan,
		Placements:     placements,
		PeakConcurrent: 5200,
		PerTestMbps:    1,
		Duration:       30 * time.Second,
		BurstProb:      -1,
		Workers:        4,
		Seed:           42,
		Metrics:        reg,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.PeakConcurrent < 5000 {
		t.Errorf("peak concurrency %d, want ≥5000", rep.PeakConcurrent)
	}
	if rep.RejectionRate > 0.05 {
		t.Errorf("rejection rate %.3f, want ≤0.05 on a plan sized for the load", rep.RejectionRate)
	}
	if rep.TestsCompleted < 10000 {
		t.Errorf("completed %d tests, want a sustained stream (≥10000)", rep.TestsCompleted)
	}
	if rep.MeanAchievedMbps < 0.5 {
		t.Errorf("mean achieved %.2f Mbps, want near the offered 1 Mbps", rep.MeanAchievedMbps)
	}
	// The fleet gauges reflect the run.
	if got := reg.Counter("swiftest_fleet_assignments_total", "").Value(); got < 10000 {
		t.Errorf("assignments counter %d, want ≥10000", got)
	}
	// Utilization is bounded by the uplinks.
	for _, s := range rep.Servers {
		if s.Utilization > 1.2 {
			t.Errorf("server %d utilization %.2f, exceeds uplink", s.ID, s.Utilization)
		}
	}
}

// TestAssignmentStreamIndependentOfWorkers is the determinism acceptance
// gate: the SHA-256 digest of the full assignment stream is byte-identical
// whether the link simulation runs on one worker or eight.
func TestAssignmentStreamIndependentOfWorkers(t *testing.T) {
	base := Config{
		Plan:           smallPlan(200, 3),
		PeakConcurrent: 300,
		PerTestMbps:    1,
		Duration:       5 * time.Second,
		Seed:           7,
	}
	run := func(workers int) Report {
		cfg := base
		cfg.Workers = workers
		rep, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("Run(workers=%d): %v", workers, err)
		}
		return rep
	}
	one, eight := run(1), run(8)
	if one.AssignmentDigest != eight.AssignmentDigest {
		t.Fatalf("assignment digest differs by worker count:\n 1: %s\n 8: %s", one.AssignmentDigest, eight.AssignmentDigest)
	}
	if one.TestsStarted != eight.TestsStarted || one.TestsCompleted != eight.TestsCompleted {
		t.Errorf("run shape differs: %+v vs %+v", one, eight)
	}
	// And a repeat with the same seed reproduces it exactly.
	again := run(1)
	if again.AssignmentDigest != one.AssignmentDigest {
		t.Fatalf("same-seed rerun digest differs")
	}
	// A different seed must not (or the digest measures nothing).
	cfg := base
	cfg.Seed = 8
	cfg.Workers = 1
	other, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if other.AssignmentDigest == one.AssignmentDigest {
		t.Fatalf("different seeds produced identical digests")
	}
}

// TestSaturationShedsWithStructuredRejections drives an undersized fleet
// past capacity: the overflow must shed as rejections, not failures.
func TestSaturationShedsWithStructuredRejections(t *testing.T) {
	reg := obs.NewRegistry()
	rep, err := Run(context.Background(), Config{
		Plan:           smallPlan(100, 1), // 100 sessions at 1 Mbps/test
		PeakConcurrent: 400,
		PerTestMbps:    1,
		Duration:       5 * time.Second,
		BurstProb:      -1,
		Seed:           3,
		Metrics:        reg,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.TestsRejected == 0 {
		t.Fatal("oversubscribed run shed nothing")
	}
	if rep.RejectionRate <= 0 {
		t.Errorf("rejection rate %.3f, want > 0", rep.RejectionRate)
	}
	if got := reg.Counter("swiftest_fleet_rejected_total", "").Value(); got != uint64(rep.TestsRejected) {
		t.Errorf("rejected counter %d, report says %d", got, rep.TestsRejected)
	}
	if rep.PeakConcurrent > 100 {
		t.Errorf("peak concurrency %d exceeded the 100-session cap", rep.PeakConcurrent)
	}
}

// TestBlackoutKillsServerAndFailsOverClients injects a mid-run blackout:
// the server must go dead by the heartbeat rule, its clients must fail over
// along their ranked assignments, and the run must keep completing tests.
func TestBlackoutKillsServerAndFailsOverClients(t *testing.T) {
	fp := &faults.Plan{Faults: []faults.Fault{{Kind: faults.Blackout, Server: 0, AtMS: 2000}}}
	if err := fp.Validate(); err != nil {
		t.Fatal(err)
	}
	trace := obs.NewTrace(4096)
	reg := obs.NewRegistry()
	rep, err := Run(context.Background(), Config{
		Plan:           smallPlan(200, 3),
		PeakConcurrent: 150,
		PerTestMbps:    1,
		Duration:       8 * time.Second,
		BurstProb:      -1,
		Seed:           11,
		Faults:         fp.Injector(),
		Trace:          trace,
		Metrics:        reg,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Failovers == 0 {
		t.Error("blackout produced no failovers")
	}
	var deadEvent, failoverAssign bool
	for _, ev := range trace.Events() {
		if ev.Kind == obs.EventServerDead && strings.Contains(ev.Note, "slot0") {
			deadEvent = true
		}
		if ev.Kind == obs.EventAssign && strings.Contains(ev.Note, "failover") {
			failoverAssign = true
		}
	}
	if !deadEvent {
		t.Error("no server_dead trace event for the blacked-out server")
	}
	if !failoverAssign {
		t.Error("no failover assignment traced")
	}
	if got := reg.Gauge("swiftest_fleet_servers_dead", "").Value(); got != 1 {
		t.Errorf("dead gauge %g, want 1", got)
	}
	if got := reg.Counter("swiftest_fleet_failovers_total", "").Value(); got != uint64(rep.Failovers) {
		t.Errorf("failover counter %d, report says %d", got, rep.Failovers)
	}
	// Survivors kept completing tests after the 2 s blackout.
	if rep.TestsCompleted == 0 {
		t.Error("no tests completed")
	}
	// The dead server delivered only its pre-blackout share.
	if rep.Servers[0].Utilization >= rep.Servers[1].Utilization {
		t.Errorf("dead server utilization %.3f not below survivor %.3f",
			rep.Servers[0].Utilization, rep.Servers[1].Utilization)
	}
}

// TestContextCancellationReturnsPartialReport confirms the ctx-first
// contract: cancellation surfaces as the context error with a partial
// report.
func TestContextCancellationReturnsPartialReport(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := Run(ctx, Config{
		Plan:           smallPlan(100, 1),
		PeakConcurrent: 10,
		Duration:       time.Second,
	})
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if rep.Duration != 0 {
		t.Errorf("partial report ran %v, want 0 (cancelled before the first step)", rep.Duration)
	}
}

// BenchmarkLoadgenVirtualTime measures virtual-time test throughput: how
// many emulated tests per wall second the generator pushes through the
// dispatch + linksim pipeline.
func BenchmarkLoadgenVirtualTime(b *testing.B) {
	cfg := Config{
		Plan:           smallPlan(500, 3),
		PeakConcurrent: 500,
		PerTestMbps:    1,
		Duration:       5 * time.Second,
		BurstProb:      -1,
		Workers:        4,
	}
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		rep, err := Run(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		total += rep.TestsCompleted
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "tests/s")
}
