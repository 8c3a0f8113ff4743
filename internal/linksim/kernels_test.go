package linksim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// fairShareRef is fairShare as it stood before it reused Link scratch: fresh
// shares and active slices on every call. Same arithmetic in the same order.
func fairShareRef(l *Link, cap float64, offered []float64) []float64 {
	n := len(l.flows)
	shares := make([]float64, n)
	if n == 0 {
		return shares
	}
	remaining := cap
	active := make([]int, 0, n)
	for i := range l.flows {
		if offered[i] > 0 {
			active = append(active, i)
		}
	}
	for len(active) > 0 && remaining > 1e-12 {
		equal := remaining / float64(len(active))
		progressed := false
		next := active[:0]
		for _, i := range active {
			want := offered[i] - shares[i]
			if want <= equal {
				shares[i] += want
				remaining -= want
				progressed = true
			} else {
				next = append(next, i)
			}
		}
		active = next
		if !progressed {
			for _, i := range active {
				shares[i] += equal
			}
			remaining = 0
			break
		}
	}
	return shares
}

// TestFairShareMatchesReference drives both bodies with the same seeded
// demand vectors — idle flows, flows far below and far above the equal share,
// capacity from starved to slack — and wants every share ==.
func TestFairShareMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for n := 0; n <= 12; n++ {
		l := testLink(t, Config{CapacityMbps: 100, RTT: 30 * time.Millisecond})
		for i := 0; i < n; i++ {
			l.NewFlow()
		}
		l.Advance() // sizes the scratch to the flow count
		offered := make([]float64, n)
		for round := 0; round < 400; round++ {
			for i := range offered {
				switch rng.Intn(4) {
				case 0:
					offered[i] = 0
				case 1:
					offered[i] = rng.Float64() * 5
				default:
					offered[i] = rng.Float64() * 300
				}
			}
			capMbps := rng.Float64() * 400
			want := fairShareRef(l, capMbps, offered)
			got := l.fairShare(capMbps, offered)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d round %d flow %d: share %v, reference %v (cap %v, offered %v)",
						n, round, i, got[i], want[i], capMbps, offered)
				}
			}
		}
	}
}

// TestAdvanceZeroAllocs holds the flood tick at zero heap allocations once
// the scratch has been sized by a first tick, on static and hooked links.
func TestAdvanceZeroAllocs(t *testing.T) {
	states := [2]LinkState{
		{Name: "good", CapacityMbps: 200, RTT: 30 * time.Millisecond, LossRate: 0.01, Fluctuation: 0.05},
		{Name: "fade", CapacityMbps: 40, RTT: 60 * time.Millisecond, LossRate: 0.05, Fluctuation: 0.2},
	}
	configs := map[string]Config{
		"static": {CapacityMbps: 200, RTT: 30 * time.Millisecond, LossRate: 0.01, Fluctuation: 0.05},
		"hooked": {
			StateHook: func(at time.Duration) LinkState { return states[int(at/time.Second)%2] },
			Impair: func(at time.Duration) Impairment {
				return Impairment{Down: at%time.Second < 50*time.Millisecond, LossProb: 0.1}
			},
		},
	}
	for name, cfg := range configs {
		for _, flows := range []int{1, 4, 8} {
			t.Run(fmt.Sprintf("%s/%d", name, flows), func(t *testing.T) {
				l := testLink(t, cfg)
				for i := 0; i < flows; i++ {
					// Mixed demand keeps the max-min loop iterating.
					l.NewFlow().SetOffered(float64(10 + 40*i))
				}
				l.Advance()
				if allocs := testing.AllocsPerRun(500, l.Advance); allocs != 0 {
					t.Errorf("Advance allocates %v times per tick, want 0", allocs)
				}
			})
		}
	}
}

// TestFlowCloseKeepsOrder compares Close with its old body — rebuild the
// slice without the flow — closing from the front, the middle and the back:
// the survivors must keep their order, because max-min sharing and the
// per-flow draws walk the slice in that order.
func TestFlowCloseKeepsOrder(t *testing.T) {
	closeRef := func(flows []*Flow, f *Flow) []*Flow {
		var out []*Flow
		for _, x := range flows {
			if x != f {
				out = append(out, x)
			}
		}
		return out
	}
	l := testLink(t, Config{CapacityMbps: 100, RTT: 20 * time.Millisecond})
	flows := make([]*Flow, 9)
	for i := range flows {
		flows[i] = l.NewFlow()
	}
	want := slices.Clone(l.flows)
	for _, i := range []int{0, 8, 4, 4, 1, 7, 3, 5, 2, 6} { // 4 twice: a closed flow stays closed
		flows[i].Close()
		want = closeRef(want, flows[i])
		if !slices.Equal(l.flows, want) {
			t.Fatalf("after closing flow %d the link holds %d flows in a different order than the rebuild (%d)", i, len(l.flows), len(want))
		}
	}
	if len(l.flows) != 0 {
		t.Errorf("%d flows left after closing all", len(l.flows))
	}
}
