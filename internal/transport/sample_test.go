package transport

import (
	"math"
	"sync"
	"testing"
	"time"
)

const ms = time.Millisecond

// arrival is one scripted RecvBatch: bytes stamped at an offset from the
// probe's start.
type arrival struct {
	at    time.Duration
	bytes int
}

// paced scripts n arrivals of size bytes, gap apart, the first at start.
func paced(start, gap time.Duration, n, size int) []arrival {
	out := make([]arrival, n)
	for i := range out {
		out[i] = arrival{start + time.Duration(i)*gap, size}
	}
	return out
}

// TestArrivalBins scripts arrival stamps through the binning and checks what
// each 50 ms window is given.
func TestArrivalBins(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   []arrival
		// want lists the expected windows in order; NaN skips one. tol is
		// the relative tolerance on each.
		want []float64
		tol  float64
	}{
		{
			// 20 Mbit/s in 1200-byte datagrams is one per 0.48 ms: 104.17 a
			// window, which a whole-datagram count reads as 104 or 105.
			name: "datagrams 0.48 ms apart fill every window alike",
			in:   paced(10*ms, 480*time.Microsecond, 500, 1200),
			want: []float64{math.NaN(), 125000, 125000, 125000},
			tol:  0.001,
		},
		{
			name: "a batch straddling an edge splits in proportion",
			in:   []arrival{{46 * ms, 1000}, {52 * ms, 6000}},
			want: []float64{1000 + 4000, 2000},
			tol:  1e-9,
		},
		{
			// The second read of one scheduler lump, 15 µs after the first,
			// is spread over sampleGrace like any other, not piled on the
			// far side of the edge.
			name: "reads bunched tighter than the grace share one stretch",
			in:   []arrival{{48 * ms, 1000}, {51 * ms, 1200}, {51*ms + 15*time.Microsecond, 2400}},
			want: []float64{1000 + 800 + 2400*(2000-1015)/2000.0, 400 + 2400*1015/2000.0},
			tol:  1e-9,
		},
		{
			name: "silence is not occupancy: at most one interval back",
			in:   []arrival{{10 * ms, 100}, {325 * ms, 5000}},
			want: []float64{100, 0, 0, 0, 0, 2500, 2500},
			tol:  1e-9,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := arrivalBins{interval: SampleInterval}
			var total int
			for _, a := range tc.in {
				b.add(a.at, a.bytes)
				total += a.bytes
			}
			var sum float64
			for k, want := range tc.want {
				got := b.take(1)
				sum += got
				if math.IsNaN(want) {
					continue
				}
				if diff := math.Abs(got - want); diff > tc.tol*math.Max(want, 1) {
					t.Errorf("window %d = %.3f bytes, want %.3f", k, got, want)
				}
			}
			sum += b.take(1 << 20) // whatever the script left in later windows
			if math.Abs(sum-float64(total)) > 1e-6*float64(total) {
				t.Errorf("windows sum to %.3f bytes, %d were received", sum, total)
			}
		})
	}
}

// TestArrivalBinsClosedWindows: once a window is reported nothing is added
// to it — a stamp from before the edge that is binned after the report pays
// into the oldest open window, whole, and a stretch reaching back over the
// edge is clipped to it.
func TestArrivalBinsClosedWindows(t *testing.T) {
	b := arrivalBins{interval: SampleInterval}
	b.add(20*ms, 3000)
	if got := b.take(1); math.Abs(got-3000) > 1e-6 {
		t.Fatalf("window 0 = %g bytes, want 3000", got)
	}
	b.add(49*ms, 1200) // stamped inside window 0, which is closed
	b.add(54*ms, 2400) // stretch (49, 54] ms clipped to (50, 54]
	if got := b.take(1); math.Abs(got-3600) > 1e-6 {
		t.Errorf("window 1 = %g bytes, want the late 1200 and the clipped 2400", got)
	}
	if got := b.take(3); got != 0 {
		t.Errorf("windows 2-4 = %g bytes, want none", got)
	}
	// A caller three windows late reads them as one figure.
	for _, a := range paced(255*ms, ms, 140, 1000) {
		b.add(a.at, a.bytes)
	}
	if got := b.take(3); math.Abs(got-140000) > 1e-6 {
		t.Errorf("windows 5-7 = %g bytes, want 140000", got)
	}
}

// TestArrivalBinsConcurrent has two sessions binning while the sampler takes
// from both — the shape of a multi-server test — and requires every byte to
// be reported exactly once. Run under -race.
func TestArrivalBinsConcurrent(t *testing.T) {
	const perSession, size = 20000, 1200
	bins := []*arrivalBins{{interval: SampleInterval}, {interval: SampleInterval}}
	var wg sync.WaitGroup
	for _, b := range bins {
		wg.Add(1)
		go func(b *arrivalBins) {
			defer wg.Done()
			for i := 0; i < perSession; i++ {
				b.add(time.Duration(i)*100*time.Microsecond, size)
			}
		}(b)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	var sum float64
	for taking := true; taking; {
		select {
		case <-done:
			taking = false
		default:
		}
		for _, b := range bins {
			sum += b.take(1)
		}
	}
	for _, b := range bins {
		sum += b.take(1 << 20)
	}
	if want := float64(2 * perSession * size); math.Abs(sum-want) > 1e-6*want {
		t.Errorf("reported %.1f bytes, sessions received %.0f", sum, want)
	}
}

// TestLateCallerGetsOneSample: SetRate can hold the engine across a 200 ms
// handshake retry. The caller that comes back several windows late must get
// one sample over all of them — not a run of empty stale windows, which is
// DefaultLostWindows zero-byte observations and a healthy server declared
// lost before its first datagram.
func TestLateCallerGetsOneSample(t *testing.T) {
	s := startServer(t, ServerConfig{UplinkMbps: 100})
	probe := newProbe(t, s, 5)
	defer probe.Finish(0, 0)
	time.Sleep(250 * ms) // the probe's windows run from its start, not from SetRate
	if err := probe.SetRate(10); err != nil {
		t.Fatal(err)
	}
	before := time.Now()
	if _, ok := probe.NextSample(); !ok {
		t.Fatal("late first sample: probe exhausted")
	}
	if waited := time.Since(before); waited > SampleInterval+sampleGrace {
		t.Errorf("late caller waited %v for windows that had already ended", waited)
	}
	probe.NextSample() // the window the rate was set in
	if v, ok := probe.NextSample(); !ok || math.Abs(v-10)/10 > 0.25 {
		t.Errorf("first full window = %g Mbit/s, ok=%v; want ≈10", v, ok)
	}
	if lost := probe.ServersLost(); lost != 0 {
		t.Errorf("ServersLost = %d after one late call", lost)
	}
}
