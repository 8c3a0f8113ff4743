package exper

import (
	"reflect"
	"testing"

	"github.com/mobilebandwidth/swiftest/internal/baseline"
	"github.com/mobilebandwidth/swiftest/internal/linksim"
	"github.com/mobilebandwidth/swiftest/internal/ranprofile"
)

// TestFloodMatchesSoloProbers holds one flood read by FAST and FastBTS to
// each prober run alone on a fresh link of the same seed, on the links a
// campaign measures: every library profile under each builtin fault plan,
// 16 runs at seeds 3 and 7. The reports must be deeply equal. Some runs must
// have FastBTS stop after FAST, so the flood that keeps going for the
// prober still reading is compared too.
func TestFloodMatchesSoloProbers(t *testing.T) {
	fast, fastBTS := &baseline.FAST{}, &baseline.FastBTS{}
	runs, outlasted := 0, 0
	for _, seed := range []int64{3, 7} {
		before := outlasted
		srcs, err := sweep{profiles: ranprofile.Names(), runs: 16, seed: seed}.sources()
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range srcs {
			for _, fp := range BuiltinFaultPlans() {
				for run := range src.seeds {
					fresh := func() *linksim.Link {
						link, _ := src.link(run, fp.Plan, false, nil)
						return link
					}
					got := baseline.Flood(fresh(), fast, fastBTS)
					want := []baseline.Report{fast.Run(fresh()), fastBTS.Run(fresh())}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d %s/%s run %d: one flood gave FAST {%v %v} and FastBTS {%v %v}, alone {%v %v} and {%v %v}",
							seed, src.name, fp.Name, run, got[0].Result, got[0].Duration, got[1].Result, got[1].Duration,
							want[0].Result, want[0].Duration, want[1].Result, want[1].Duration)
					}
					runs++
					if want[1].Duration > want[0].Duration {
						outlasted++
					}
				}
			}
		}
		t.Logf("seed %d: FastBTS outlasted FAST in %d runs", seed, outlasted-before)
	}
	if outlasted == 0 {
		t.Errorf("FastBTS outlasted FAST in none of %d runs: the flood past a prober's stop went untested", runs)
	}
}
