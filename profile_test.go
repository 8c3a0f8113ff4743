package swiftest_test

import (
	"context"
	"reflect"
	"testing"

	swiftest "github.com/mobilebandwidth/swiftest"
)

func TestProfileLibraryPublicAPI(t *testing.T) {
	names := swiftest.Profiles()
	if len(names) < 8 {
		t.Fatalf("embedded library has %d profiles, want >= 8", len(names))
	}
	for _, name := range names {
		p, err := swiftest.LookupProfile(name)
		if err != nil {
			t.Fatalf("LookupProfile(%q): %v", name, err)
		}
		if p.Name != name || len(p.States) == 0 {
			t.Errorf("profile %q malformed: %+v", name, p)
		}
	}
	if _, err := swiftest.LookupProfile("no-such-profile"); err == nil {
		t.Error("LookupProfile accepted an unknown name")
	}
}

func TestParseProfilesRoundTrip(t *testing.T) {
	lib := []byte(`{
		"version": 1,
		"profiles": [{
			"name": "custom",
			"tech": "4G",
			"description": "single steady state",
			"initial": "good",
			"states": [{"name": "good", "capacity_mbps": 50, "rtt_ms": 40, "mean_dwell_ms": 1000}],
			"transitions": {}
		}]
	}`)
	ps, err := swiftest.ParseProfiles(lib)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 1 || ps[0].Name != "custom" {
		t.Fatalf("parsed %+v", ps)
	}
	if _, err := swiftest.ParseProfiles([]byte(`{"version": 2, "profiles": []}`)); err == nil {
		t.Error("unknown library version accepted")
	}
}

// TestBaselinesHonourLinkProfile pins the LinkConfig.Profile contract: the
// baseline runners replay the same scenario as a Swiftest run on the same
// (profile, seed), so a flooding result reflects the chain's states rather
// than the static capacity knob.
func TestBaselinesHonourLinkProfile(t *testing.T) {
	p, err := swiftest.LookupProfile("4g-drive")
	if err != nil {
		t.Fatal(err)
	}
	// CapacityMbps deliberately set to an absurd static value: the profile
	// must win.
	link := swiftest.LinkConfig{CapacityMbps: 10000, Seed: 5, Profile: p}
	bts, err := swiftest.RunBTSApp(link)
	if err != nil {
		t.Fatal(err)
	}
	// 4g-drive peaks at 35 Mbps; a flooding average above that means the
	// static capacity leaked through.
	if bts.BandwidthMbps <= 0 || bts.BandwidthMbps > 50 {
		t.Errorf("BTS-APP on 4g-drive = %.1f Mbps, want within the profile's envelope", bts.BandwidthMbps)
	}
	again, err := swiftest.RunBTSApp(link)
	if err != nil {
		t.Fatal(err)
	}
	if again.BandwidthMbps != bts.BandwidthMbps {
		t.Errorf("profiled baseline not deterministic: %.3f vs %.3f", bts.BandwidthMbps, again.BandwidthMbps)
	}
}

// TestProfileSimulationIsDeterministic is the replay property the campaign
// runner rests on, pinned at the public API: the same (profile, seed) pair
// must reproduce the exact Result and the exact structured event stream —
// not approximately, byte for byte — while a different seed must actually
// change the run.
func TestProfileSimulationIsDeterministic(t *testing.T) {
	model, err := swiftest.DefaultModel(swiftest.Tech4G)
	if err != nil {
		t.Fatal(err)
	}
	run := func(profileName string, seed int64) (swiftest.Result, []swiftest.TraceEvent) {
		p, err := swiftest.LookupProfile(profileName)
		if err != nil {
			t.Fatal(err)
		}
		trace := swiftest.NewTrace()
		res, err := swiftest.SimulateTestContext(
			context.Background(),
			swiftest.LinkConfig{Seed: seed, Profile: p},
			model,
			swiftest.SimulateOptions{SessionOptions: swiftest.SessionOptions{Trace: trace}},
		)
		if err != nil {
			t.Fatalf("%s seed %d: %v", profileName, seed, err)
		}
		return res, trace.Events()
	}

	for _, name := range []string{"4g-drive", "5g-train", "wifi-congested-apartment"} {
		a, aEvents := run(name, 11)
		b, bEvents := run(name, 11)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed diverged: %+v vs %+v", name, a, b)
		}
		if !reflect.DeepEqual(aEvents, bEvents) {
			t.Errorf("%s: same seed produced different event streams (%d vs %d events)",
				name, len(aEvents), len(bEvents))
		}
		_, cEvents := run(name, 12)
		if reflect.DeepEqual(aEvents, cEvents) {
			t.Errorf("%s: seeds 11 and 12 produced identical event streams — seeding is dead", name)
		}
	}
}
