package earlystop

import (
	"context"
	"reflect"
	"testing"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/core"
	"github.com/mobilebandwidth/swiftest/internal/dataset"
	"github.com/mobilebandwidth/swiftest/internal/linksim"
	"github.com/mobilebandwidth/swiftest/internal/ranprofile"
)

func TestPolicyName(t *testing.T) {
	if got := NewPolicy(nil).Name(); got != "earlystop" {
		t.Errorf("Name() = %q, want earlystop", got)
	}
}

func TestPolicyCrossingFallbackWins(t *testing.T) {
	// A stream the crossing rule stops on: 10 trailing samples within 3 %.
	samples := []float64{10, 40, 80, 120}
	for i := 0; i < 10; i++ {
		samples = append(samples, 100)
	}
	d := NewPolicy(nil).Decide(samples, nil, 0)
	if !d.Stop {
		t.Fatal("policy did not stop on a crossing-stable stream")
	}
	if d.Early {
		t.Error("crossing-rule stop reported Early=true")
	}
	if d.Estimate != 100 {
		t.Errorf("Estimate = %v, want the 100 Mbps tail mean", d.Estimate)
	}
}

func TestPolicyMinSamplesGate(t *testing.T) {
	m := *Default()
	m.MinSamples = 30
	// Noisy stream the crossing rule never stops on, shorter than K.
	samples := make([]float64, 29)
	for i := range samples {
		samples[i] = 100 + 40*float64(i%2)
	}
	if d := (Policy{Model: &m}).Decide(samples, nil, 0); d.Stop {
		t.Errorf("policy stopped at %d samples with MinSamples %d", len(samples), m.MinSamples)
	}
}

func TestPolicyModelStopIsEarly(t *testing.T) {
	// Force the model to always fire: zero weights, negative-free bias
	// drives the sigmoid to ~1, threshold well below it.
	m := *Default()
	m.Weights = [NFeatures]float64{}
	m.Bias = 50
	m.Threshold = 0.9
	// Noisy enough that the crossing rule does not stop (tail spread > 3%).
	samples := make([]float64, 25)
	for i := range samples {
		samples[i] = 100 + 40*float64(i%2)
	}
	d := (Policy{Model: &m}).Decide(samples, nil, 0)
	if !d.Stop || !d.Early {
		t.Fatalf("Decide = %+v, want a model-fired early stop", d)
	}
	if d.Check < m.Threshold {
		t.Errorf("Check = %v below threshold %v on a fired stop", d.Check, m.Threshold)
	}
	if d.Note != "model" {
		t.Errorf("Note = %q, want model", d.Note)
	}
}

// TestPolicyEngineDeterministic runs the full engine twice with the
// earlystop policy on the identical seeded link and requires byte-identical
// Result streams — the determinism half of the acceptance gate.
func TestPolicyEngineDeterministic(t *testing.T) {
	profile, err := ranprofile.Get("5g-drive")
	if err != nil {
		t.Fatal(err)
	}
	model, err := dataset.TechModel(profile.DatasetTech())
	if err != nil {
		t.Fatal(err)
	}
	run := func() core.Result {
		machine := ranprofile.NewMachine(profile, 9, ranprofile.MachineOptions{})
		link, err := linksim.New(linksim.Config{StateHook: machine.Hook()}, 9)
		if err != nil {
			t.Fatal(err)
		}
		probe := core.NewSimProbe(link)
		defer probe.Close()
		res, err := core.RunContext(context.Background(), probe, core.Config{
			Model:       model,
			MaxDuration: 4500 * time.Millisecond,
			Terminate:   NewPolicy(nil),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two runs on the identical seeded link diverged:\n%+v\n%+v", a, b)
	}
}
