package estimate

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/mobilebandwidth/swiftest/internal/stats"
)

// crucialIntervalRef is the crucial-interval rule as first written: copy,
// sort, and score every candidate interval with two divisions, keeping the
// first interval to reach the best score (strict >), start by start and
// count by count.
func crucialIntervalRef(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return samples[0]
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	eps := (sorted[n-1] - sorted[0]) / float64(n*10)
	if eps <= 0 {
		return sorted[0]
	}
	bestScore := math.Inf(-1)
	bestLo, bestHi := 0, n-1
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			k := float64(j - i + 1)
			width := sorted[j] - sorted[i] + eps
			density := k / width
			quantity := k / float64(n)
			score := density * quantity
			if score > bestScore {
				bestScore, bestLo, bestHi = score, i, j
			}
		}
	}
	return stats.Mean(sorted[bestLo : bestHi+1])
}

// ranStream is 200 samples shaped like what FastBTS collects on a RAN
// profile: a TCP ramp to a noisy plateau, a step down, and two blackouts
// that leave runs of zeros.
func ranStream(seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	s := make([]float64, 200)
	for i := range s {
		level := 180.0
		if i >= 120 {
			level = 140
		}
		s[i] = math.Max(0, level*(1-math.Exp(-float64(i)/8))+rng.NormFloat64()*6)
		if (i >= 70 && i < 78) || (i >= 150 && i < 156) {
			s[i] = 0
		}
	}
	return s
}

// plateauStream is 35 samples shaped like a FastBTS test that stops at its
// first chance: a short ramp onto a plateau with 1 % noise.
func plateauStream(seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	s := make([]float64, 35)
	for i := range s {
		s[i] = 180*(1-math.Exp(-float64(i)/3)) + rng.NormFloat64()*1.8
	}
	return s
}

// crucialStreams are seeded streams of the shapes that stress the interval
// search and the table: all-distinct values, a handful of values repeated
// many times (score ties), runs of exact zeros in a live stream (what a
// blackout leaves behind), strictly ascending (every Add appends), strictly
// descending (every Add inserts at index 0), a RAN-like run, and the
// samples no link produces: a NaN mid-stream (sorted first, it makes every
// score NaN), a +Inf (every score 0 or NaN), and subnormal values (eps is
// subnormal and scores overflow to +Inf).
func crucialStreams() map[string][]float64 {
	const n = 250
	rng := rand.New(rand.NewSource(31))
	random := make([]float64, n)
	duplicated := make([]float64, n)
	zeroRuns := make([]float64, n)
	levels := []float64{0, 12.5, 12.5 + 1e-9, 80, 300.25}
	for i := 0; i < n; i++ {
		random[i] = rng.Float64() * 900
		duplicated[i] = levels[rng.Intn(len(levels))]
		if i%40 < 7+rng.Intn(6) {
			zeroRuns[i] = 0
		} else {
			zeroRuns[i] = 150 + rng.NormFloat64()*4
		}
	}
	ascending := make([]float64, n)
	descending := make([]float64, n)
	up, down := 0.0, 1000.0
	for i := 0; i < n; i++ {
		up += 0.05 + rng.ExpFloat64()
		down -= 0.05 + rng.ExpFloat64()
		ascending[i], descending[i] = up, down
	}
	nan := append([]float64{5, 6, math.NaN(), 7, 5.5}, random[:45]...)
	inf := append([]float64(nil), random[:80]...)
	inf[30] = math.Inf(1)
	subnormal := make([]float64, 80)
	for i := range subnormal {
		subnormal[i] = float64(rng.Intn(1<<20)) * 0x1p-1074
	}
	return map[string][]float64{
		"random": random, "duplicated": duplicated, "zero-runs": zeroRuns,
		"ascending": ascending, "descending": descending, "ran": ranStream(7),
		"nan": nan, "inf": inf, "subnormal": subnormal,
	}
}

// checkCrucial holds one table fed stream in order to the reference, bit
// for bit: after every Add but those skip marks, and after the last. After
// every Add, skipped or not, each count's bounds must hold its narrowest
// width; a skipped Estimate leaves them as the Adds left them.
func checkCrucial(t *testing.T, name string, stream []float64, skip []bool) {
	t.Helper()
	var c crucial
	for n := 0; ; n++ {
		if n == 0 || n == len(stream) || skip == nil || !skip[n-1] {
			if got, want := c.Estimate(), crucialIntervalRef(stream[:n]); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s n=%d: crucial.Estimate = %v, reference %v", name, n, got, want)
			}
		}
		if n == len(stream) {
			return
		}
		c.Add(stream[n])
		checkBounds(t, name, &c)
	}
}

// checkBounds holds lb[d] ≤ w ≤ ub[d], w the narrowest width of d+1
// consecutive samples, for every count of a table of finite samples (a NaN
// or an infinity makes widths NaN, and they are not ordered).
func checkBounds(t *testing.T, name string, c *crucial) {
	t.Helper()
	s := c.sorted
	if math.IsNaN(s[0]) || math.IsInf(s[0], 0) || math.IsInf(s[len(s)-1], 0) {
		return
	}
	for d := range s {
		w := math.Inf(1)
		for i := d; i < len(s); i++ {
			w = min(w, s[i]-s[i-d])
		}
		if !(c.lb[d] <= w && w <= c.ub[d]) {
			t.Fatalf("%s n=%d: count %d has width %v outside its bounds [%v, %v]", name, len(s), d+1, w, c.lb[d], c.ub[d])
		}
	}
}

func TestCrucialMatchesReference(t *testing.T) {
	for name, stream := range crucialStreams() {
		checkCrucial(t, name, stream, nil)
	}
}

// FuzzCrucial holds the table to the reference on streams of ties and
// near-ties, up to FastBTS's 200-sample deadline: each byte picks one of a
// few levels (low three bits) and moves it up to three ulps (bits 3–4),
// down when bit 5 is set. Bit 6 skips the comparison after that sample, so
// the bounds must also survive Adds that no Estimate refines.
func FuzzCrucial(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4})
	f.Add([]byte{2, 10, 2, 42, 2, 18, 3, 3, 11, 35, 3, 43})
	f.Add([]byte{1, 9, 17, 25, 33, 41, 49, 57, 1, 1, 2, 2, 3, 3, 4, 4, 0, 0})
	sparse := make([]byte, 120)
	for i := range sparse {
		sparse[i] = byte(i*7%5 | i%4<<3 | i%3/2<<5)
		if i%9 != 8 {
			sparse[i] |= 0x40
		}
	}
	f.Add(sparse)
	f.Fuzz(func(t *testing.T, data []byte) {
		levels := [...]float64{0, 12.5, 80, 80.25, 300}
		data = data[:min(len(data), 200)]
		stream := make([]float64, 0, len(data))
		skip := make([]bool, 0, len(data))
		for _, b := range data {
			x := levels[int(b&7)%len(levels)]
			toward := math.Inf(1)
			if b&0x20 != 0 {
				toward = math.Inf(-1)
			}
			for range (b >> 3) & 3 {
				x = math.Nextafter(x, toward)
			}
			stream = append(stream, x)
			skip = append(skip, b&0x40 != 0)
		}
		checkCrucial(t, "fuzz", stream, skip)
	})
}

var crucialSink float64

func TestCrucialAllocs(t *testing.T) {
	stream := ranStream(1)
	var c crucial
	for _, x := range stream[:100] {
		c.Add(x)
	}
	if a := testing.AllocsPerRun(100, func() { crucialSink = c.Estimate() }); a != 0 {
		t.Errorf("Estimate: %v allocs, want 0", a)
	}
	roomy := crucial{sorted: make([]float64, 0, len(stream)), lb: make([]float64, 0, len(stream)), ub: make([]float64, 0, len(stream))}
	next := 0
	// AllocsPerRun calls once more than it is asked to: len(stream) Adds.
	if a := testing.AllocsPerRun(len(stream)-1, func() { roomy.Add(stream[next]); next++ }); a != 0 {
		t.Errorf("Add with room: %v allocs, want 0", a)
	}
}

// BenchmarkCrucial times the table through a FastBTS run: Adds after the
// 10-sample warm-up, an estimate after every sample from the 30th. ran190
// is a 200-sample RAN run that hits the deadline; plateau25 a 35-sample
// plateau, the length at which sim-static's FastBTS tests stop, where the
// table's constant cost dominates.
func BenchmarkCrucial(b *testing.B) {
	for _, bc := range []struct {
		name   string
		stream []float64
	}{{"ran190", ranStream(1)}, {"plateau25", plateauStream(1)}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var c crucial
				for n := 10; n < len(bc.stream); n++ {
					c.Add(bc.stream[n])
					if n+1 >= 30 {
						crucialSink = c.Estimate()
					}
				}
			}
		})
	}
}
