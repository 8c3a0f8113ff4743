package exper

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"testing"

	"github.com/mobilebandwidth/swiftest/internal/earlystop"
)

func TestReplayDeterministicRows(t *testing.T) {
	cfg := ReplayConfig{
		Profiles:   []string{"wifi-cafe"},
		FaultPlans: []NamedFaultPlan{{Name: "none"}},
		Runs:       2,
		Seed:       5,
	}
	r1, err := Replay(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Replay(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1) == 0 {
		t.Fatal("replay produced no rows")
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Error("two replays of the identical config produced different rows")
	}
}

func TestTrainFromReplayByteIdenticalArtifact(t *testing.T) {
	rcfg := ReplayConfig{
		Profiles: []string{"5g-static", "4g-drive", "subway"},
		Runs:     2,
		Seed:     3,
	}
	m1, rows, err := TrainFromReplay(context.Background(), rcfg, earlystop.TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("TrainFromReplay returned no rows")
	}
	m2, _, err := TrainFromReplay(context.Background(), rcfg, earlystop.TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b1, err := m1.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := m2.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Error("TrainFromReplay artifacts differ across identical reruns")
	}
}

// TestTrainFromReplayRecordsReplaySettings: the artifact records the K and
// the tolerance the rows were labeled under, the replay's defaults included.
func TestTrainFromReplayRecordsReplaySettings(t *testing.T) {
	for _, rcfg := range []ReplayConfig{{}, {MinSamples: 25, Tolerance: 0.05}} {
		want, err := rcfg.withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		rcfg.Profiles, rcfg.Runs, rcfg.Seed, rcfg.PrefixStep = []string{"4g-static", "wifi-cafe"}, 1, 3, 10
		m, _, err := TrainFromReplay(context.Background(), rcfg, earlystop.TrainOptions{Iterations: 10})
		if err != nil {
			t.Fatal(err)
		}
		if m.MinSamples != want.MinSamples || m.Tolerance != want.Tolerance {
			t.Errorf("replay K %d, tolerance %g: artifact records %d, %g",
				want.MinSamples, want.Tolerance, m.MinSamples, m.Tolerance)
		}
	}
}

func TestReplayCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Replay(ctx, ReplayConfig{Profiles: []string{"wifi-cafe"}}); !errors.Is(err, context.Canceled) {
		t.Errorf("Replay on a cancelled context: %v, want context.Canceled", err)
	}
}

func TestEvaluateCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Evaluate(ctx, EvalConfig{Profiles: []string{"wifi-cafe"}}); !errors.Is(err, context.Canceled) {
		t.Errorf("Evaluate on a cancelled context: %v, want context.Canceled", err)
	}
}

// TestTrainFromReplayRejectsBadThreshold: a threshold the model artifact
// cannot carry is refused before the replay runs — on a cancelled context,
// so reaching the replay would report context.Canceled instead.
func TestTrainFromReplayRejectsBadThreshold(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, th := range []float64{1.5, math.NaN()} {
		_, _, err := TrainFromReplay(ctx, ReplayConfig{Profiles: []string{"wifi-cafe"}}, earlystop.TrainOptions{Threshold: th})
		if err == nil || errors.Is(err, context.Canceled) {
			t.Errorf("TrainFromReplay(threshold %v) = %v, want a threshold error before the replay", th, err)
		}
	}
}

// TestReplayGolden pins the replay rows and the artifact trained on them to
// the bytes `swiftest earlystop train -profiles 4g-static,wifi-cafe -runs 1
// -seed 3 -step 10 -iters 100 -rows rows.jsonl -o tiny.json` writes: the
// rows file is one json.Encoder line per row, the artifact is Model.Encode.
func TestReplayGolden(t *testing.T) {
	const (
		wantRows     = "db90bf775f45d5c9f7dd5e6f29e461ba7639f2623c69bad020b57eea9e2f743d"
		wantArtifact = "1884330ca213642797f52a43cdd5d613f73d65ea948a9d811858effa24ba6878"
	)
	model, rows, err := TrainFromReplay(context.Background(), ReplayConfig{
		Profiles:   []string{"4g-static", "wifi-cafe"},
		Runs:       1,
		Seed:       3,
		PrefixStep: 10,
	}, earlystop.TrainOptions{Iterations: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 48 {
		t.Errorf("replay produced %d rows, want 48", len(rows))
	}
	var jsonl bytes.Buffer
	enc := json.NewEncoder(&jsonl)
	for _, r := range rows {
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	if got := sha256Hex(jsonl.Bytes()); got != wantRows {
		t.Errorf("replay rows sha256 = %s, want %s", got, wantRows)
	}
	artifact, err := model.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex(artifact); got != wantArtifact {
		t.Errorf("trained artifact sha256 = %s, want %s", got, wantArtifact)
	}
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestEvaluatePairedAcceptance is the headline gate: over the full RAN
// profile library × builtin fault plans, the default earlystop model must
// match or beat the crossing policy's mean accuracy while spending less
// time and fewer bytes — every policy on identical seeded links.
func TestEvaluatePairedAcceptance(t *testing.T) {
	rep, err := Evaluate(context.Background(), EvalConfig{Runs: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 2 {
		t.Fatalf("Points = %d, want crossing + one earlystop point", len(rep.Points))
	}
	crossing, learned := rep.Points[0], rep.Points[1]
	if learned.MeanAccuracy < crossing.MeanAccuracy {
		t.Errorf("earlystop accuracy %.4f below crossing %.4f",
			learned.MeanAccuracy, crossing.MeanAccuracy)
	}
	if learned.MeanDurationMS >= crossing.MeanDurationMS {
		t.Errorf("earlystop duration %.0f ms not below crossing %.0f ms",
			learned.MeanDurationMS, crossing.MeanDurationMS)
	}
	if learned.MeanDataMB >= crossing.MeanDataMB {
		t.Errorf("earlystop data %.1f MB not below crossing %.1f MB",
			learned.MeanDataMB, crossing.MeanDataMB)
	}
	if learned.EarlyStops == 0 {
		t.Error("earlystop never fired across the full matrix")
	}
}

func TestEvaluateRejectsBadThreshold(t *testing.T) {
	for _, th := range []float64{1.2, math.NaN()} {
		_, err := Evaluate(context.Background(), EvalConfig{
			Profiles:   []string{"wifi-cafe"},
			Thresholds: []float64{th},
		})
		if err == nil {
			t.Errorf("Evaluate accepted threshold %v outside (0,1)", th)
		}
	}
}

// TestEvaluateMatchesCommittedFront re-runs the full paired front (every
// profile and fault plan, three runs per cell, seed 1, four extra thresholds)
// and requires the report to marshal to testdata/earlystop_front.json: the
// front, model firings included, is bit-identical to the committed one. A
// failure prints the regenerated JSON.
func TestEvaluateMatchesCommittedFront(t *testing.T) {
	raw, err := os.ReadFile("testdata/earlystop_front.json")
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := json.Compact(&want, raw); err != nil {
		t.Fatal(err)
	}
	rep, err := Evaluate(context.Background(), EvalConfig{
		Runs:       3,
		Seed:       1,
		Thresholds: []float64{0.7, 0.75, 0.85, 0.9},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("paired front differs from testdata/earlystop_front.json:\n got %s\nwant %s", got, want.Bytes())
	}
}
