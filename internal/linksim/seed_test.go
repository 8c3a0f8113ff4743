package linksim

import (
	"math"
	"testing"
	"time"
)

// deliveryTrace runs a link that exercises every draw the emulator makes —
// AR(1) capacity noise, Poisson dip starts, burst and spurious loss — and
// records what one saturating flow saw on each tick. readCapacity reads
// CapacityMbit after every tick, which must change nothing.
func deliveryTrace(seed int64, ticks int, readCapacity bool) ([]float64, []bool) {
	l := MustNew(Config{
		CapacityMbps: 200,
		RTT:          30 * time.Millisecond,
		Fluctuation:  0.08,
		LossRate:     0.05,
		Dipping:      &Dips{RatePerSec: 2, Depth: 0.5, Duration: 100 * time.Millisecond},
		Impair:       func(time.Duration) Impairment { return Impairment{LossProb: 0.05} },
	}, seed)
	f := l.NewFlow()
	f.SetOffered(1000)
	achieved := make([]float64, ticks)
	lost := make([]bool, ticks)
	for i := range achieved {
		l.Advance()
		if readCapacity {
			_ = l.CapacityMbit()
		}
		achieved[i], lost[i] = f.Achieved(), f.LossSignal()
	}
	return achieved, lost
}

// TestSeedReplaysDeliveryTrace is the seed contract: one seed names one link,
// tick for tick, and another seed names another. Reading the link's ∫cap on
// one of the two replays must not move it.
func TestSeedReplaysDeliveryTrace(t *testing.T) {
	const ticks = 1000
	a, aLost := deliveryTrace(7, ticks, false)
	b, bLost := deliveryTrace(7, ticks, true)
	for i := range a {
		if a[i] != b[i] || aLost[i] != bLost[i] {
			t.Fatalf("seed 7 diverged from itself at tick %d: %v/%v vs %v/%v", i, a[i], aLost[i], b[i], bLost[i])
		}
	}
	c, _ := deliveryTrace(8, ticks, false)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	// Burst-lost ticks deliver exactly 0 on both links; anything beyond those
	// coinciding means the seeds share a stream.
	if same > ticks/10 {
		t.Errorf("seeds 7 and 8 delivered the same rate on %d of %d ticks", same, ticks)
	}
}

// TestGeneratorStatistics would catch a broken generator behind the seed: the
// AR(1) noise must hold its configured stationary s.d. and spurious loss its
// configured frequency. 20 000 correlated ticks resolve the s.d. to ≈2 % and
// the loss frequency to ≈1.5 %, so the 10 % bands are several sigma wide.
func TestGeneratorStatistics(t *testing.T) {
	const (
		ticks       = 20000
		fluctuation = 0.05
		lossRate    = 0.2
	)
	l := testLink(t, Config{CapacityMbps: 100, RTT: 30 * time.Millisecond, Fluctuation: fluctuation, LossRate: lossRate})
	f := l.NewFlow()
	f.SetOffered(10) // far under capacity: every loss signal is spurious
	var sum, sumSq float64
	losses := 0
	for i := 0; i < ticks; i++ {
		l.Advance()
		sum += l.noise
		sumSq += l.noise * l.noise
		if f.LossSignal() {
			losses++
		}
	}
	mean := sum / ticks
	sd := math.Sqrt(sumSq/ticks - mean*mean)
	if math.Abs(sd-fluctuation) > 0.1*fluctuation {
		t.Errorf("AR(1) noise s.d. = %.4f over %d ticks, want %.4f ±10 %%", sd, ticks, fluctuation)
	}
	if math.Abs(mean) > 0.2*fluctuation {
		t.Errorf("AR(1) noise mean = %.4f, want ≈0", mean)
	}
	if freq := float64(losses) / ticks; math.Abs(freq-lossRate) > 0.1*lossRate {
		t.Errorf("spurious loss frequency = %.4f over %d ticks, want %.4f ±10 %%", freq, ticks, lossRate)
	}
}

// TestCapacityPathIgnoresFlows is the two-stream rule: links of one seed see
// one capacity path however many flows they carry, what those flows offer and
// what their loss draws come up with. The hook moves capacity, RTT, loss and
// noise between two states, dips start at random, every flow draws for
// spurious loss and for a link-wide burst-loss impairment, and the link
// without flows draws for neither.
func TestCapacityPathIgnoresFlows(t *testing.T) {
	good := LinkState{Name: "good", CapacityMbps: 200, RTT: 30 * time.Millisecond, LossRate: 0.05, Fluctuation: 0.08}
	fade := LinkState{Name: "fade", CapacityMbps: 40, RTT: 70 * time.Millisecond, LossRate: 0.2, Fluctuation: 0.2}
	cfg := Config{
		StateHook: func(at time.Duration) LinkState {
			if at%(700*time.Millisecond) < 400*time.Millisecond {
				return good
			}
			return fade
		},
		Dipping: &Dips{RatePerSec: 2, Depth: 0.5, Duration: 100 * time.Millisecond},
		Impair:  func(time.Duration) Impairment { return Impairment{LossProb: 0.1} },
	}
	offers := [][]float64{nil, {1000}, {5, 30, 300, 1000}}
	links := make([]*Link, len(offers))
	for i, offered := range offers {
		links[i] = MustNew(cfg, 11)
		for _, mbps := range offered {
			links[i].NewFlow().SetOffered(mbps)
		}
	}
	for tick := 0; tick < 1000; tick++ {
		for _, l := range links {
			l.Advance()
		}
		want := links[0].capacityNow()
		for i, l := range links[1:] {
			if got := l.capacityNow(); got != want {
				t.Fatalf("tick %d: capacity %v with %d flows, %v with none", tick, got, len(offers[i+1]), want)
			}
		}
	}
}

// TestCapacityMbitIntegratesCapacity: CapacityMbit is Σ capacityNow()·TickSeconds
// over the ticks advanced, each tick's capacity read at the tick's own time.
// The dips make the difference between that and a read after the clock moves:
// on a dip's last tick the link is still dipped, and one tick later it is not.
func TestCapacityMbitIntegratesCapacity(t *testing.T) {
	l := MustNew(Config{
		CapacityMbps: 100,
		RTT:          30 * time.Millisecond,
		Fluctuation:  0.05,
		Dipping:      &Dips{RatePerSec: 2, Depth: 0.6, Duration: 100 * time.Millisecond},
	}, 5)
	var want float64
	dipEnds := 0
	for tick := 0; tick < 1000; tick++ {
		l.Advance()
		// Rewind the clock to the tick just advanced to read its capacity.
		l.now -= Tick
		c := l.capacityNow()
		l.now += Tick
		if l.now == l.dipUntil {
			dipEnds++
			if c == l.capacityNow() {
				t.Fatalf("tick %d: a dip's last tick reads capacity %v, as the tick after it does", tick, c)
			}
		}
		want += c * TickSeconds
		if got := l.CapacityMbit(); got != want {
			t.Fatalf("tick %d: CapacityMbit = %v, want %v", tick, got, want)
		}
	}
	if dipEnds == 0 {
		t.Fatal("no dip ended in 1000 ticks: the test never crossed a dip's last tick")
	}
}
