package linksim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// fairShareRef is fairShare as it stood before it reused Link scratch: fresh
// shares and active slices on every call. Same arithmetic in the same order.
func fairShareRef(cap float64, offered []float64) []float64 {
	n := len(offered)
	shares := make([]float64, n)
	if n == 0 {
		return shares
	}
	remaining := cap
	active := make([]int, 0, n)
	for i := range offered {
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
			want := fairShareRef(capMbps, offered)
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

// tableHandles lists the handles of the link's flow rows in table order and
// fails if a handle's row index does not name its own row.
func tableHandles(t *testing.T, l *Link) []*Flow {
	t.Helper()
	out := make([]*Flow, len(l.flows))
	for i, r := range l.flows {
		if r.flow.row != i {
			t.Fatalf("row %d holds a handle pointing at row %d", i, r.flow.row)
		}
		out[i] = r.flow
	}
	return out
}

// TestFlowCloseKeepsOrder closes flows from the front, the middle and the
// back, opening new ones in between, and checks the link's flow table where
// the compaction happens — at the next Advance. The survivors must keep their
// order, with flows opened since the Close after them, because max-min
// sharing and the per-flow draws walk the rows in that order.
func TestFlowCloseKeepsOrder(t *testing.T) {
	l := testLink(t, Config{CapacityMbps: 100, RTT: 20 * time.Millisecond})
	var want []*Flow // open flows in open order
	open := func() {
		f := l.NewFlow()
		f.SetOffered(10)
		want = append(want, f)
	}
	for range 9 {
		open()
	}
	rounds := [][]int{{0}, {8, 3}, {3, 3}, {0, 1, 2}, {4, 0}, {1}}
	for r, closes := range rounds {
		for _, i := range closes { // an index twice: a closed flow stays closed
			want[i].Close()
		}
		want = slices.DeleteFunc(want, func(f *Flow) bool { return f.closed })
		open() // opened between Close and the compaction
		l.Advance()
		if !slices.Equal(tableHandles(t, l), want) {
			t.Fatalf("round %d: after Advance the link holds %d flows, want the %d open ones in open order", r, len(l.flows), len(want))
		}
		if l.closing != 0 {
			t.Fatalf("round %d: %d closes still pending after Advance", r, l.closing)
		}
	}
	for _, f := range want {
		f.Close()
	}
	l.Advance()
	if len(l.flows) != 0 {
		t.Errorf("%d flows left after closing all", len(l.flows))
	}
}

// closeRef is Close as it stood before closing became a mark: freeze the
// flow's values, delete its row from the link's table at once and re-point
// every handle behind it.
func closeRef(f *Flow) {
	if f.closed {
		return
	}
	l := f.link
	r := l.flows[f.row]
	f.closed = true
	f.achieved, f.bits, f.lost = r.achieved, r.bits, r.lost
	if r.impair != nil {
		l.hooked--
	}
	l.flows = slices.Delete(l.flows, f.row, f.row+1)
	for i := f.row; i < len(l.flows); i++ {
		l.flows[i].flow.row = i
	}
}

// TestLazyCloseMatchesEagerDelete churns two identically seeded links — one
// closing with Close, one with closeRef — under spurious loss, per-flow
// burst-loss impairments and episodic dips, so every tick draws from the
// link's rng once per flow. Every flow's delivered bytes must stay equal in
// their bits: the lazy removal leaves the draw order untouched.
func TestLazyCloseMatchesEagerDelete(t *testing.T) {
	cfg := Config{
		CapacityMbps: 120, RTT: 30 * time.Millisecond, LossRate: 0.02, Fluctuation: 0.08,
		Dipping: &Dips{RatePerSec: 1, Depth: 0.6, Duration: 150 * time.Millisecond},
	}
	lazy, eager := MustNew(cfg, 9), MustNew(cfg, 9)
	rng := rand.New(rand.NewSource(9))
	var lazyFlows, eagerFlows []*Flow
	open := func() {
		offered := rng.Float64() * 40
		lossProb := 0.0
		if rng.Intn(2) == 0 {
			lossProb = rng.Float64() * 0.3
		}
		imp := func(time.Duration) Impairment { return Impairment{LossProb: lossProb} }
		for _, side := range []struct {
			l     *Link
			flows *[]*Flow
		}{{lazy, &lazyFlows}, {eager, &eagerFlows}} {
			f := side.l.NewFlow()
			f.SetOffered(offered)
			f.SetImpairment(imp)
			*side.flows = append(*side.flows, f)
		}
	}
	for range 12 {
		open()
	}
	for tick := 0; tick < 400; tick++ {
		for range rng.Intn(3) {
			i := rng.Intn(len(lazyFlows))
			lazyFlows[i].Close()
			closeRef(eagerFlows[i])
		}
		for range rng.Intn(3) {
			open()
		}
		lazy.Advance()
		eager.Advance()
		for i := range lazyFlows {
			a, b := lazyFlows[i], eagerFlows[i]
			if math.Float64bits(a.DeliveredBytes()) != math.Float64bits(b.DeliveredBytes()) || a.LossSignal() != b.LossSignal() {
				t.Fatalf("tick %d flow %d: delivered %v loss %v, eager reference %v %v",
					tick, i, a.DeliveredBytes(), a.LossSignal(), b.DeliveredBytes(), b.LossSignal())
			}
		}
	}
}

// TestClosedFlowIsInert closes one flow mid-table, then closes and opens
// others so the prune moves rows into the one it left. Before and after the
// prune, the closed flow's readers and its delivered-byte windows must
// report the last tick it was open; its setters, called throughout on one of
// two identical links, must leave every other flow's bits where the
// untouched twin has them.
func TestClosedFlowIsInert(t *testing.T) {
	cfg := Config{CapacityMbps: 90, RTT: 20 * time.Millisecond, LossRate: 0.05, Fluctuation: 0.05}
	poked, twin := MustNew(cfg, 4), MustNew(cfg, 4)
	var pokedFlows, twinFlows []*Flow
	open := func(mbps float64) {
		for _, side := range []struct {
			l     *Link
			flows *[]*Flow
		}{{poked, &pokedFlows}, {twin, &twinFlows}} {
			f := side.l.NewFlow()
			f.SetOffered(mbps)
			*side.flows = append(*side.flows, f)
		}
	}
	for i := range 6 {
		open(float64(5 + 7*i))
	}
	closed := pokedFlows[2]
	for range 3 {
		poked.Advance()
		twin.Advance()
	}
	achieved, delivered, lost := closed.Achieved(), closed.DeliveredBytes(), closed.LossSignal()
	var peek float64
	sample := windowMbps(closed, &peek, 3*Tick)
	if sample == 0 {
		t.Fatal("the flow delivered nothing before Close; the test needs a live sample")
	}

	poke := func() {
		closed.SetOffered(1000)
		closed.SetImpairment(func(time.Duration) Impairment { return Impairment{Down: true} })
	}
	check := func(when string) {
		t.Helper()
		if closed.Achieved() != achieved || closed.DeliveredBytes() != delivered || closed.LossSignal() != lost {
			t.Fatalf("%s: closed flow reads %v/%v/%v, want the last tick's %v/%v/%v", when,
				closed.Achieved(), closed.DeliveredBytes(), closed.LossSignal(), achieved, delivered, lost)
		}
		for i, f := range pokedFlows {
			if f == closed {
				continue
			}
			g := twinFlows[i]
			if math.Float64bits(f.DeliveredBytes()) != math.Float64bits(g.DeliveredBytes()) || f.LossSignal() != g.LossSignal() {
				t.Fatalf("%s: flow %d delivered %v loss %v, untouched twin %v %v: a closed flow's setter reached it",
					when, i, f.DeliveredBytes(), f.LossSignal(), g.DeliveredBytes(), g.LossSignal())
			}
		}
	}

	closed.Close()
	twinFlows[2].Close()
	poke()
	check("before the prune")
	var window float64
	if got := windowMbps(closed, &window, 3*Tick); got != sample {
		t.Fatalf("window after Close reads %v, want the last window's %v", got, sample)
	}
	for _, i := range []int{0, 1, 3} { // the flow opened next lands in row 2
		pokedFlows[i].Close()
		twinFlows[i].Close()
	}
	open(3) // under its fair share: a stray SetOffered would show
	poke()
	for range 5 {
		poked.Advance()
		twin.Advance()
		poke()
		check("after the prune")
	}
	if closed.row < len(poked.flows) && poked.flows[closed.row].flow == closed {
		t.Fatal("the prune left the closed flow's row in the table")
	}
	if got := windowMbps(closed, &window, 5*Tick); got != 0 {
		t.Errorf("a closed flow delivers %v Mbps over windows after Close, want 0", got)
	}
}

// BenchmarkAdvance times one tick: a lone flow on a static link, eight on a
// profile- and fault-hooked link, and a fleet server's 5 Gbit/s uplink
// carrying 4300 1 Mbit/s tests. One op is one Advance.
func BenchmarkAdvance(b *testing.B) {
	states := [2]LinkState{
		{Name: "good", CapacityMbps: 200, RTT: 30 * time.Millisecond, LossRate: 0.01, Fluctuation: 0.05},
		{Name: "fade", CapacityMbps: 40, RTT: 60 * time.Millisecond, LossRate: 0.05, Fluctuation: 0.2},
	}
	cases := []struct {
		name  string
		cfg   Config
		flows int
		mbps  func(i int) float64
	}{
		{"static/1", Config{CapacityMbps: 200, RTT: 30 * time.Millisecond, LossRate: 0.01, Fluctuation: 0.05}, 1,
			func(int) float64 { return 1000 }},
		{"hooked/8", Config{
			StateHook: func(at time.Duration) LinkState { return states[int(at/time.Second)%2] },
			Impair: func(at time.Duration) Impairment {
				return Impairment{Down: at%time.Second < 50*time.Millisecond, LossProb: 0.1}
			},
		}, 8, func(i int) float64 { return float64(10 + 40*i) }},
		{"fleet/4300", Config{CapacityMbps: 5000, RTT: 20 * time.Millisecond, Fluctuation: 0.05}, 4300,
			func(int) float64 { return 1 }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			l := MustNew(c.cfg, 1)
			for i := range c.flows {
				l.NewFlow().SetOffered(c.mbps(i))
			}
			l.Advance()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Advance()
			}
		})
	}
}

// BenchmarkFlowChurn is a server uplink under a fleet day's load: 2000 flows,
// with a handful closed and as many opened every 5-tick step. One op is one
// step.
func BenchmarkFlowChurn(b *testing.B) {
	const flows, churn = 2000, 8
	l := MustNew(Config{CapacityMbps: 2500, RTT: 20 * time.Millisecond, Fluctuation: 0.05}, 1)
	open := make([]*Flow, 0, flows+churn)
	for range flows {
		f := l.NewFlow()
		f.SetOffered(1)
		open = append(open, f)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Equal-length tests end in the order they started.
		for _, f := range open[:churn] {
			f.Close()
		}
		open = append(open[:0], open[churn:]...)
		for range churn {
			f := l.NewFlow()
			f.SetOffered(1)
			open = append(open, f)
		}
		for range 5 {
			l.Advance()
		}
	}
}
