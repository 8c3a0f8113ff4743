package estimate

import (
	"math"
	"math/rand"
	"testing"
)

// fastBTSStep is what FastBTSStop.Add returns after one sample.
type fastBTSStep struct {
	est    float64
	streak int
	judged bool
}

// fastBTSStopRef is the FastBTS rule written out from its definition for
// every prefix of samples: step n−1 holds, for the first n samples, the
// full-scan crucial-interval estimate after the warm-up and the agreement
// streak counted forward from FastBTSMinSamples, each prefix compared with
// the one fastBTSAgreeLag samples shorter.
func fastBTSStopRef(samples []float64) []fastBTSStep {
	estimateAt := func(n int) float64 {
		if n <= fastBTSWarmup {
			return 0
		}
		return crucialIntervalRef(samples[fastBTSWarmup:n])
	}
	steps := make([]fastBTSStep, len(samples))
	streak := 0
	for i := range steps {
		n := i + 1
		est := estimateAt(n)
		if n < FastBTSMinSamples {
			steps[i] = fastBTSStep{est: est}
			continue
		}
		prev := estimateAt(n - fastBTSAgreeLag)
		if prev > 0 && est > 0 && math.Abs(est-prev)/math.Max(est, prev) <= fastBTSAgreeThreshold {
			streak++
		} else {
			streak = 0
		}
		steps[i] = fastBTSStep{est, streak, true}
	}
	return steps
}

// fastBTSStreams are streams of the shapes the agreement rule must tell
// apart, 96 samples each: a ramp that settles (the streak grows far past
// FastBTSAgreeRounds), a link that switches level every few samples
// (streaks start and break), a plateau with blackouts (zero estimates), and
// plain noise; and one 200-sample RAN run, a whole FastBTS run to its 10 s
// deadline (a ramp, a level step and two blackouts).
func fastBTSStreams() map[string][]float64 {
	const n = 96
	rng := rand.New(rand.NewSource(17))
	settling := make([]float64, n)
	switching := make([]float64, n)
	blackouts := make([]float64, n)
	noise := make([]float64, n)
	for i := range settling {
		settling[i] = 300*(1-math.Exp(-float64(i)/6)) + rng.NormFloat64()*2
		level := 200.0
		if (i/26)%2 == 1 {
			level = 90
		}
		switching[i] = level + rng.NormFloat64()*3
		blackouts[i] = 150 + rng.NormFloat64()
		if i < 45 || i%30 < 8 {
			blackouts[i] = 0
		}
		noise[i] = rng.Float64() * 400
	}
	return map[string][]float64{"settling": settling, "switching": switching, "blackouts": blackouts, "noise": noise, "ran": ranStream(17)}
}

// checkFastBTSStop feeds stream to one rule and holds every Add, and the
// deadline Estimate after each, to the reference. It returns the
// reference's steps.
func checkFastBTSStop(t *testing.T, name string, stream []float64) []fastBTSStep {
	t.Helper()
	want := fastBTSStopRef(stream)
	var r FastBTSStop
	for i, x := range stream {
		var got fastBTSStep
		got.est, got.streak, got.judged = r.Add(x)
		if math.Float64bits(got.est) != math.Float64bits(want[i].est) || got.streak != want[i].streak || got.judged != want[i].judged {
			t.Fatalf("%s n=%d: Add = %+v, reference %+v", name, i+1, got, want[i])
		}
		if e := r.Estimate(); math.Float64bits(e) != math.Float64bits(want[i].est) {
			t.Fatalf("%s n=%d: Estimate = %v, reference %v", name, i+1, e, want[i].est)
		}
	}
	return want
}

func TestFastBTSStopMatchesReference(t *testing.T) {
	longest, broken := 0, false
	for name, stream := range fastBTSStreams() {
		prev := fastBTSStep{}
		for _, step := range checkFastBTSStop(t, name, stream) {
			longest = max(longest, step.streak-FastBTSAgreeRounds)
			if prev.streak > 0 && prev.streak < FastBTSAgreeRounds && step.streak == 0 {
				broken = true
			}
			prev = step
		}
	}
	if longest < 10 {
		t.Errorf("longest streak ran %d past FastBTSAgreeRounds: streaks beyond the stop are untested", longest)
	}
	if !broken {
		t.Error("no streak broke before reaching FastBTSAgreeRounds: the reset is untested")
	}
}

// FuzzFastBTSStop holds the rule to the reference on streams that agree,
// drift and black out: each byte picks a level (low three bits), nudges it
// by up to ±3 % (bits 3–5) and repeats it one to four times (bits 6–7).
func FuzzFastBTSStop(f *testing.F) {
	settle := make([]byte, 48)
	for i := range settle {
		settle[i] = byte(3 | i%7<<3 | 0xc0)
	}
	f.Add(settle)
	f.Add([]byte{0xc0, 0xc0, 0xc0, 0xc1, 0xc1, 0xc1, 0xc2, 0xc2, 0xc3, 0xc3, 0xc3, 0xc3, 0xcb, 0xd3, 0xc3, 0xc3, 0xc0, 0xc0, 0xc3, 0xdb, 0xe3, 0xc3, 0xc3, 0xc3, 0xc3, 0xc3})
	f.Add([]byte{0xc4, 0xc4, 0xc4, 0xc5, 0xc5, 0xc5, 0xc5, 0xc4, 0xc4, 0xc6, 0xc6, 0xc6, 0xc6, 0xc4, 0xc4, 0xc4, 0xc5, 0xc5, 0xc6, 0xc6})
	f.Fuzz(func(t *testing.T, data []byte) {
		levels := [...]float64{0, 40, 41, 42, 150, 160, 300, 0.5}
		stream := make([]float64, 0, 160)
		for _, b := range data {
			x := levels[b&7] * (1 + float64(int(b>>3&7)-3)/100)
			for range b>>6 + 1 {
				stream = append(stream, x)
			}
			if len(stream) >= 160 {
				break
			}
		}
		checkFastBTSStop(t, "fuzz", stream)
	})
}

// TestFastBTSAnswersZeroOnBlackout pins what FastBTS does with a blackout on
// a RAN link by its rule, not by a seed. A 350 ms outage leaves a run of
// seven exact zeros among the 50 ms samples. The live samples spread over
// the states a RAN link moves through (here four levels of 70–180 Mbit/s,
// 600 ms each, with 8 % noise), so no interval of them is as dense as seven
// equal values and the crucial interval picks the zeros. A zero estimate
// never agrees, so the test runs to its 10 s deadline and answers 0. (Such
// streams answer 0 at 40 of 40 noise seeds.)
func TestFastBTSAnswersZeroOnBlackout(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var r FastBTSStop
	for i := range 200 {
		level := [...]float64{180, 120, 70, 140}[i/12%4]
		x := level * (1 - math.Exp(-float64(i)/8)) * (1 + 0.08*rng.NormFloat64())
		if i >= 20 && i < 27 { // the blackout, 1.0–1.35 s into the test
			x = 0
		}
		if _, streak, _ := r.Add(x); streak >= FastBTSAgreeRounds {
			t.Fatalf("stopped after %d samples", i+1)
		}
	}
	if got := r.Estimate(); got != 0 {
		t.Errorf("deadline estimate = %v Mbit/s, want 0 (the blackout's zeros)", got)
	}
}
