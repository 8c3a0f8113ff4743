package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"regexp"
	"runtime"
	"testing"
)

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

// sameRows holds a section of BENCHMARK.json equal to the ledger's rows:
// same names in the same order, same unit and direction, and a bound exactly
// where the contract wants one.
func sameRows(t *testing.T, section string, got []declared, want []metricDef, bounded bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: BENCHMARK.json declares %d rows, the ledger has %d", section, len(got), len(want))
		return
	}
	for i, w := range want {
		g := got[i]
		if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
			t.Errorf("%s row %d: BENCHMARK.json has {%s %s %s}, the ledger {%s %s %s}", section, i, g.Name, g.Unit, g.Better, w.name, w.unit, w.better)
		}
		if !nameRE.MatchString(g.Name) {
			t.Errorf("%s: name %q is not made of letters, digits, '_', '.' and '-'", section, g.Name)
		}
		if g.Unit == "" {
			t.Errorf("%s: %s has no unit", section, g.Name)
		}
		switch {
		case bounded && (g.Bound == nil || *g.Bound <= 0 || *g.Bound > 0.25):
			t.Errorf("%s: %s needs a bound in (0, 0.25]", section, g.Name)
		case !bounded && g.Bound != nil:
			t.Errorf("%s: %s must not carry a bound", section, g.Name)
		}
	}
}

func TestLedgerMatchesBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	sameRows(t, "end_to_end", f.EndToEnd, endToEnd, true)
	sameRows(t, "per_layer", f.PerLayer, perLayer, false)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, f.Workloads[i].Name, f.Workloads[i].Why, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) {
			t.Errorf("workload name %q is not made of letters, digits, '_', '.' and '-'", w.name)
		}
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[m.name] {
			t.Errorf("metric name %q is used twice", m.name)
		}
		seen[m.name] = true
	}
}

// TestSmoke runs every workload, traced and not, at a size that only proves
// the code paths: the numbers are never kept. It holds each run to the
// contract of the result line — correct, something attempted, and exactly
// the declared rows, each with its unit.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name, want := w.name+"/end_to_end", endToEnd
			if traced {
				name, want = w.name+"/per_layer", perLayer
			}
			t.Run(name, func(t *testing.T) {
				var out bytes.Buffer
				res, err := run(context.Background(), runConfig{
					workload: w.name, seed: 7, seconds: 0.3, traced: traced,
					size: smokeSize, workers: min(runtime.NumCPU(), 2), out: &out, spanDir: t.TempDir(),
				})
				if err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d rows, declared %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.name]
					if !ok {
						t.Errorf("row %s was not printed", m.name)
					} else if got.Unit != m.unit {
						t.Errorf("row %s printed in %q, declared in %q", m.name, got.Unit, m.unit)
					}
				}
				if !traced {
					for _, m := range want {
						if res.Metrics[m.name].Value <= 0 {
							t.Errorf("end-to-end row %s is %v; it must never be 0", m.name, res.Metrics[m.name].Value)
						}
					}
				}
			})
		}
	}
}
