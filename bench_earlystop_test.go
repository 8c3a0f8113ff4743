// Emitter for BENCH_earlystop.json: the paired accuracy-vs-duration-vs-data
// front of the learned early-termination policy versus the §5.1 crossing
// baseline. Every point runs on identical seeded links (profile × fault
// plan × run) against fault-free flooding ground truth, so the deltas
// measure the policy alone. Gated on BENCH_EARLYSTOP_OUT so regular
// `go test ./...` runs never pay for it:
//
//	BENCH_EARLYSTOP_OUT=BENCH_earlystop.json go test -run TestEmitBenchEarlystop .
package swiftest_test

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"github.com/mobilebandwidth/swiftest/internal/exper"
)

type benchEarlystopReport struct {
	Schema string `json:"schema"`
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	CPUs   int    `json:"cpus"`
	Note   string `json:"note"`

	// Front is the paired evaluation: crossing first, then the earlystop
	// policy at the default model's threshold and the swept extras.
	Front *exper.EvalReport `json:"front"`

	// The acceptance deltas of the default-threshold point versus crossing
	// (positive accuracy delta and negative duration/data deltas mean the
	// learned policy wins on every axis).
	AccuracyDelta   float64 `json:"accuracy_delta"`
	DurationRatio   float64 `json:"duration_ratio"`
	DataRatio       float64 `json:"data_ratio"`
	WallSeconds     float64 `json:"wall_seconds"`
	PairedTestsPerS float64 `json:"paired_tests_per_sec"`
}

// TestEmitBenchEarlystop traces the full paired front over the whole RAN
// profile library and writes BENCH_earlystop.json.
func TestEmitBenchEarlystop(t *testing.T) {
	out := os.Getenv("BENCH_EARLYSTOP_OUT")
	if out == "" {
		t.Skip("set BENCH_EARLYSTOP_OUT=<path> to emit the benchmark report")
	}

	cfg := exper.EvalConfig{
		Runs:       3,
		Seed:       1,
		Thresholds: []float64{0.7, 0.75, 0.85, 0.9},
	}
	var rep *exper.EvalReport
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var err error
			rep, err = exper.Evaluate(context.Background(), cfg)
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	wallSec := res.T.Seconds() / float64(res.N)

	crossing, learned := rep.Points[0], rep.Points[1]
	if learned.MeanAccuracy < crossing.MeanAccuracy {
		t.Errorf("earlystop accuracy %.3f below crossing %.3f — default model regressed",
			learned.MeanAccuracy, crossing.MeanAccuracy)
	}
	if learned.MeanDurationMS >= crossing.MeanDurationMS || learned.MeanDataMB >= crossing.MeanDataMB {
		t.Errorf("earlystop cost (%.0f ms, %.1f MB) not below crossing (%.0f ms, %.1f MB)",
			learned.MeanDurationMS, learned.MeanDataMB, crossing.MeanDurationMS, crossing.MeanDataMB)
	}

	paired := 0
	for _, p := range rep.Points {
		paired += p.Runs
	}
	report := benchEarlystopReport{
		Schema: "swiftest-bench-earlystop/v1",
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		CPUs:   runtime.NumCPU(),
		Note: "full RAN profile library x builtin fault plans, every policy on " +
			"identical seeded links vs fault-free flooding ground truth",
		Front:           rep,
		AccuracyDelta:   learned.MeanAccuracy - crossing.MeanAccuracy,
		DurationRatio:   learned.MeanDurationMS / crossing.MeanDurationMS,
		DataRatio:       learned.MeanDataMB / crossing.MeanDataMB,
		WallSeconds:     wallSec,
		PairedTestsPerS: float64(paired) / wallSec,
	}

	f, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("earlystop front: Δaccuracy %+.3f, duration ×%.2f, data ×%.2f over %d paired runs",
		report.AccuracyDelta, report.DurationRatio, report.DataRatio, learned.Runs)
}
