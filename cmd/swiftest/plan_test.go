package main

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/deploy"
	"github.com/mobilebandwidth/swiftest/internal/fleet"
)

// The -json artifact must round-trip, unmodified, into a live fleet
// dispatcher: what the planner writes is exactly what the control plane
// boots from.
func TestArtifactFeedsFleetDispatcher(t *testing.T) {
	w := deploy.Workload{
		TestsPerDay:     200000,
		AvgTestDuration: 1200 * time.Millisecond,
		AvgBandwidth:    40,
		PeakFactor:      2,
	}
	plan, err := deploy.PlanPurchase(deploy.SyntheticCatalogue(), w.RequiredMbps(), 0.075,
		deploy.PlanOptions{MinServers: 3})
	if err != nil {
		t.Fatal(err)
	}
	placements, err := deploy.PlaceServers(plan, nil)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "plan.json")
	if err := writeArtifact(path, w, plan, placements); err != nil {
		t.Fatalf("writeArtifact: %v", err)
	}

	art, err := deploy.LoadArtifact(path)
	if err != nil {
		t.Fatalf("LoadArtifact: %v", err)
	}
	d, err := fleet.NewDispatcherFromArtifact(art, fleet.Config{ActivatePlanned: true})
	if err != nil {
		t.Fatalf("NewDispatcherFromArtifact: %v", err)
	}
	if got := len(d.Registry().Servers()); got != plan.Servers() {
		t.Errorf("dispatcher has %d servers, plan has %d", got, plan.Servers())
	}
	if d.Capacity() <= 0 {
		t.Errorf("dispatcher capacity %d, want > 0", d.Capacity())
	}
	if _, err := d.Dispatch(fleet.ClientInfo{Key: 1, Domain: "Beijing"}, 0); err != nil {
		t.Errorf("Dispatch from artifact-built fleet: %v", err)
	}
}

// TestPlanPaperWorkload: the plan verb's defaults are the paper's §5.2
// evaluation workload, which buys the 20 × 100 Mbps budget fleet, and -json
// writes an artifact that loads back as the same plan.
func TestPlanPaperWorkload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plan.json")
	stdout, err := captureStdout(t, func() error { return planCmd([]string{"-json", path}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"purchase plan ($208.20/month, 2000 Mbps total",
		"20 × vm-100mbps",
		"15.0× more expensive",
		"deployment artifact written to " + path,
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("plan output lacks %q:\n%s", want, stdout)
		}
	}
	art, err := deploy.LoadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if art.Plan.Servers() != 20 || art.Plan.TotalMbps != 2000 {
		t.Errorf("artifact plan = %d servers, %g Mbps; want 20, 2000", art.Plan.Servers(), art.Plan.TotalMbps)
	}
}
