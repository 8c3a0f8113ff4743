package exper

import (
	"bytes"
	"context"
	"errors"
	"math"
	"runtime"
	"testing"

	"github.com/mobilebandwidth/swiftest/internal/estimate"
	"github.com/mobilebandwidth/swiftest/internal/linksim"
	"github.com/mobilebandwidth/swiftest/internal/obs"
	"github.com/mobilebandwidth/swiftest/internal/ranprofile"
)

// campaignBytes runs a small campaign and returns the report JSON.
func campaignBytes(t *testing.T, workers int) []byte {
	t.Helper()
	rep, err := RunCampaign(context.Background(), CampaignConfig{
		Profiles:   []string{"4g-drive", "wifi-cafe"},
		Algorithms: []string{"swiftest", "fastbts"},
		Runs:       2,
		Seed:       99,
		Workers:    workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCampaignByteIdenticalAcrossWorkers(t *testing.T) {
	one := campaignBytes(t, 1)
	eight := campaignBytes(t, 8)
	if !bytes.Equal(one, eight) {
		t.Fatalf("report differs between -workers 1 and 8:\n%s\nvs\n%s", one, eight)
	}
	again := campaignBytes(t, 8)
	if !bytes.Equal(eight, again) {
		t.Fatal("report differs between identical reruns")
	}
}

// TestCampaignGolden pins the bytes `swiftest campaign -runs 2 -seed 7 -json -`
// prints: the whole library, the default algorithms and the builtin fault
// plans, through WriteJSON.
func TestCampaignGolden(t *testing.T) {
	const want = "a85496b79bb65b1a5651f37c033bb8ee656ac25743de8cbc1092a5c7715970a6"
	rep, err := RunCampaign(context.Background(), CampaignConfig{Runs: 2, Seed: 7, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex(buf.Bytes()); got != want {
		t.Errorf("campaign report sha256 = %s, want %s", got, want)
	}
}

// TestRunLinksShareCapacity pins what pairs a campaign's cells: at one seed,
// newLink gives every contestant the same capacity, whatever number of flows
// it opens. One flow offering far above any profile's capacity takes all of
// it, so four such flows must take the same total, tick for tick, on every
// library profile.
func TestRunLinksShareCapacity(t *testing.T) {
	const ticks = int(SwiftestMaxDuration / linksim.Tick)
	for _, name := range ranprofile.Names() {
		t.Run(name, func(t *testing.T) {
			profile, err := ranprofile.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(1); seed <= 5; seed++ {
				one, _ := newLink(profile, nil, seed, nil)
				four, _ := newLink(profile, nil, seed, nil)
				solo := one.NewFlow()
				solo.SetOffered(1e5)
				var flows [4]*linksim.Flow
				for i := range flows {
					flows[i] = four.NewFlow()
					flows[i].SetOffered(1e5)
				}
				for tick := range ticks {
					one.Advance()
					four.Advance()
					var sum float64
					for _, f := range flows {
						sum += f.Achieved()
					}
					if want := solo.Achieved(); math.Abs(sum-want) > 1e-9*want {
						t.Fatalf("seed %d tick %d: four flows took %v Mbit/s, one flow %v", seed, tick, sum, want)
					}
				}
			}
		})
	}
}

// TestOracleIsWhatContestantsMeasured: the oracle read on a link carrying no
// flow is bit-equal to the ∫cap over the same 10 s of a link of the same seed
// that one saturating flow drives, on every library profile.
func TestOracleIsWhatContestantsMeasured(t *testing.T) {
	for _, name := range ranprofile.Names() {
		profile, err := ranprofile.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 3; seed++ {
			link, _ := newLink(profile, nil, seed, nil)
			link.NewFlow().SetOffered(1e5)
			for link.Now() < estimate.BTSAppDuration {
				link.Advance()
			}
			flooded := link.CapacityMbit() / estimate.BTSAppDuration.Seconds()
			if oracle := oracleMbps(profile, seed); oracle != flooded || oracle <= 0 {
				t.Errorf("%s seed %d: oracle %v Mbit/s without flows, %v under a saturating flow", name, seed, oracle, flooded)
			}
		}
	}
}

// TestCampaignScoresBTSApp: the btsapp row is scored against the oracle like
// every other row, and shares the profile's oracle column with them.
func TestCampaignScoresBTSApp(t *testing.T) {
	rep, err := RunCampaign(context.Background(), CampaignConfig{
		Profiles:   []string{"4g-static", "5g-drive"},
		Algorithms: []string{"swiftest", "btsapp"},
		Runs:       2,
		Seed:       3,
		Workers:    4,
	})
	if err != nil {
		t.Fatal(err)
	}
	oracle := make(map[string]float64)
	for _, s := range rep.Scenarios {
		if s.Algorithm == "swiftest" {
			oracle[s.Profile] = s.MeanTruthMbps
		}
	}
	btsapp := 0
	for _, s := range rep.Scenarios {
		if s.Algorithm != "btsapp" {
			continue
		}
		btsapp++
		if s.MeanAccuracy <= 0 || s.MeanAccuracy > 1 {
			t.Errorf("%s/btsapp/%s: accuracy %g out of (0,1]", s.Profile, s.FaultPlan, s.MeanAccuracy)
		}
		if s.MeanTruthMbps != oracle[s.Profile] {
			t.Errorf("%s/btsapp/%s: oracle %v, the swiftest rows have %v", s.Profile, s.FaultPlan, s.MeanTruthMbps, oracle[s.Profile])
		}
	}
	if want := 2 * len(BuiltinFaultPlans()); btsapp != want {
		t.Fatalf("report has %d btsapp cells, want %d", btsapp, want)
	}
}

func TestCampaignSweepShape(t *testing.T) {
	reg := obs.NewRegistry()
	rep, err := RunCampaign(context.Background(), CampaignConfig{
		Profiles:   []string{"subway"},
		Algorithms: []string{"swiftest", "fastbts", "fast"},
		Runs:       1,
		Seed:       5,
		Workers:    4,
		Registry:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantCells := 1 * 3 * len(BuiltinFaultPlans())
	if len(rep.Scenarios) != wantCells {
		t.Fatalf("report has %d cells, want %d", len(rep.Scenarios), wantCells)
	}
	if rep.Schema != CampaignReportSchema {
		t.Errorf("schema = %q, want %q", rep.Schema, CampaignReportSchema)
	}
	var totalStateChanges int
	for _, s := range rep.Scenarios {
		if s.MeanTruthMbps <= 0 {
			t.Errorf("%s/%s/%s: non-positive ground truth", s.Profile, s.Algorithm, s.FaultPlan)
		}
		// FastBTS may answer 0: a blackout's run of zero samples can be its
		// crucial interval (estimate's TestFastBTSAnswersZeroOnBlackout).
		// Every other row reads some of the link.
		if s.Algorithm == "fastbts" {
			if s.MeanAccuracy < 0 || s.MeanAccuracy > 1 {
				t.Errorf("%s/%s/%s: accuracy %g out of [0,1]", s.Profile, s.Algorithm, s.FaultPlan, s.MeanAccuracy)
			}
		} else if s.MeanAccuracy <= 0 || s.MeanAccuracy > 1 {
			t.Errorf("%s/%s/%s: accuracy %g out of (0,1]", s.Profile, s.Algorithm, s.FaultPlan, s.MeanAccuracy)
		}
		if s.MeanDurationMS <= 0 {
			t.Errorf("%s/%s/%s: non-positive duration", s.Profile, s.Algorithm, s.FaultPlan)
		}
		totalStateChanges += s.StateChanges
	}
	// A fast-converging run can legitimately end before its first
	// transition; across the whole sweep the subway chain must move.
	if totalStateChanges == 0 {
		t.Error("no campaign link ever changed state")
	}
	// The subway profile hands over; the campaign registry must have seen
	// dwell observations from the profiled links.
	lm := ranprofile.NewLinkMetrics(reg)
	if lm.StateDwell.Count() == 0 {
		t.Error("campaign registry recorded no state dwell observations")
	}

	var buf bytes.Buffer
	if err := rep.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("WriteTable produced no output")
	}
}

func TestCampaignDefaultsSweepWholeLibrary(t *testing.T) {
	cfg, err := CampaignConfig{}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Profiles) < 8 {
		t.Errorf("default sweep covers %d profiles, want >= 8", len(cfg.Profiles))
	}
	if len(cfg.Algorithms) < 2 || len(cfg.FaultPlans) < 2 {
		t.Errorf("default sweep %v x %d fault plans too narrow", cfg.Algorithms, len(cfg.FaultPlans))
	}
}

func TestCampaignRejectsUnknownAlgorithm(t *testing.T) {
	_, err := RunCampaign(context.Background(), CampaignConfig{Algorithms: []string{"warpdrive"}})
	if err == nil {
		t.Fatal("campaign accepted unknown algorithm")
	}
}

func TestCampaignHonoursCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunCampaign(ctx, CampaignConfig{Runs: 1, Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCampaign on a cancelled context: %v, want context.Canceled", err)
	}
}

// TestCampaignCellsArePaired pins the seeding contract: a run's link depends
// on (seed, profile, run index) only, so the cells of a profile share one
// ground truth, and sweeping fewer algorithms or fault plans cannot change
// the rows that remain.
func TestCampaignCellsArePaired(t *testing.T) {
	run := func(algs []string, plans []NamedFaultPlan) map[[3]string]ScenarioStats {
		t.Helper()
		rep, err := RunCampaign(context.Background(), CampaignConfig{
			Profiles:   []string{"5g-drive", "subway"},
			Algorithms: algs,
			FaultPlans: plans,
			Runs:       2,
			Seed:       41,
			Workers:    4,
		})
		if err != nil {
			t.Fatal(err)
		}
		rows := make(map[[3]string]ScenarioStats)
		truth := make(map[string]float64)
		for _, s := range rep.Scenarios {
			rows[[3]string{s.Profile, s.Algorithm, s.FaultPlan}] = s
			if first, seen := truth[s.Profile]; !seen {
				truth[s.Profile] = s.MeanTruthMbps
			} else if s.MeanTruthMbps != first {
				t.Errorf("%s/%s/%s: truth %v, the profile's first cell has %v",
					s.Profile, s.Algorithm, s.FaultPlan, s.MeanTruthMbps, first)
			}
		}
		if truth["5g-drive"] == truth["subway"] {
			t.Errorf("both profiles report truth %v: seeds ignore the profile", truth["subway"])
		}
		return rows
	}

	plans := BuiltinFaultPlans()
	full := run([]string{"swiftest", "fastbts", "fast"}, plans)
	fewerAlgs := run([]string{"fast"}, plans)
	fewerPlans := run([]string{"fastbts", "swiftest"}, plans[2:])
	for name, subset := range map[string]map[[3]string]ScenarioStats{"algorithms": fewerAlgs, "fault plans": fewerPlans} {
		for key, row := range subset {
			if row != full[key] {
				t.Errorf("narrowing %s changed cell %v:\n got %+v\nwant %+v", name, key, row, full[key])
			}
		}
	}
	if len(fewerAlgs) != 6 || len(fewerPlans) != 4 {
		t.Fatalf("subset campaigns have %d and %d cells, want 6 and 4", len(fewerAlgs), len(fewerPlans))
	}
}

// BenchmarkCampaign measures one small campaign sweep per iteration — the
// CI bench smoke's guard that the campaign runner stays on the fast path.
func BenchmarkCampaign(b *testing.B) {
	cfg := CampaignConfig{
		Profiles:   []string{"4g-static", "wifi-cafe"},
		Algorithms: []string{"fastbts"},
		FaultPlans: []NamedFaultPlan{{Name: "none"}},
		Runs:       1,
		Seed:       3,
		Workers:    runtime.NumCPU(),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunCampaign(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}
