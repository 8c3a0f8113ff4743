package deploy

import (
	"strings"
	"testing"
	"time"
)

func TestSessionCap(t *testing.T) {
	cases := []struct {
		uplink, perTest float64
		want            int
	}{
		{1000, 5, 200},
		{100, 5, 20},
		{100, 1, 100},
		{10, 3, 3},   // floor, not round
		{4, 5, 0},    // uplink below one test
		{100, 0, 0},  // degenerate per-test rate
		{0, 5, 0},    // degenerate uplink
		{100, -1, 0}, // negative guard
		{-100, 5, 0}, // negative guard
	}
	for _, c := range cases {
		got := ServerConfig{BandwidthMbps: c.uplink}.SessionCap(c.perTest)
		if got != c.want {
			t.Errorf("SessionCap(%g Mbps uplink, %g Mbps/test) = %d, want %d", c.uplink, c.perTest, got, c.want)
		}
	}
}

func TestConcurrentCapacitySumsPurchases(t *testing.T) {
	plan := Plan{Purchases: []Purchase{
		{Config: ServerConfig{BandwidthMbps: 1000}, Count: 2},
		{Config: ServerConfig{BandwidthMbps: 100}, Count: 3},
	}}
	if got := plan.ConcurrentCapacity(5); got != 2*200+3*20 {
		t.Errorf("ConcurrentCapacity(5) = %d, want %d", got, 2*200+3*20)
	}
	if got := plan.ConcurrentCapacity(0); got != 0 {
		t.Errorf("ConcurrentCapacity(0) = %d, want 0", got)
	}
	if got := (Plan{}).ConcurrentCapacity(5); got != 0 {
		t.Errorf("empty plan capacity = %d, want 0", got)
	}
}

func TestArtifactRoundTrip(t *testing.T) {
	plan, err := PlanPurchase(SyntheticCatalogue(), 5500, 0.075, PlanOptions{MinServers: 3})
	if err != nil {
		t.Fatal(err)
	}
	placements, err := PlaceServers(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := Workload{TestsPerDay: 200000, AvgTestDuration: 1200 * time.Millisecond, AvgBandwidth: 40, PeakFactor: 2}
	art := NewArtifact(w, plan, placements)
	if err := art.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	var sb strings.Builder
	if err := art.Encode(&sb); err != nil {
		t.Fatal(err)
	}
	got, err := ParseArtifact([]byte(sb.String()))
	if err != nil {
		t.Fatalf("ParseArtifact: %v", err)
	}
	if got.Plan.Servers() != plan.Servers() {
		t.Errorf("round-trip server count %d, want %d", got.Plan.Servers(), plan.Servers())
	}
	if got.Plan.TotalMbps != plan.TotalMbps {
		t.Errorf("round-trip TotalMbps %g, want %g", got.Plan.TotalMbps, plan.TotalMbps)
	}
	if len(got.Placements) != len(placements) {
		t.Errorf("round-trip %d placements, want %d", len(got.Placements), len(placements))
	}
	if got.Workload != w {
		t.Errorf("round-trip workload %+v, want %+v", got.Workload, w)
	}
}

func TestArtifactValidateRejectsDrift(t *testing.T) {
	plan := Plan{Purchases: []Purchase{{Config: ServerConfig{BandwidthMbps: 100}, Count: 2}}, TotalMbps: 200}

	if err := (&Artifact{Schema: "bogus/v9", Plan: plan}).Validate(); err == nil {
		t.Error("wrong schema accepted")
	}
	if err := NewArtifact(Workload{}, Plan{}, nil).Validate(); err == nil {
		t.Error("empty plan accepted")
	}
	short := NewArtifact(Workload{}, plan, []Placement{{Domain: "d", Servers: []ServerConfig{{BandwidthMbps: 100}}}})
	if err := short.Validate(); err == nil {
		t.Error("placements covering 1 of 2 servers accepted")
	}
	anon := NewArtifact(Workload{}, plan, []Placement{{Domain: "", Servers: []ServerConfig{{BandwidthMbps: 100}, {BandwidthMbps: 100}}}})
	if err := anon.Validate(); err == nil {
		t.Error("empty placement domain accepted")
	}
	if _, err := ParseArtifact([]byte(`{"schema":"swiftest-deploy-plan/v1","surprise":1}`)); err == nil {
		t.Error("unknown field accepted")
	}
}
