package lint

import "testing"

func TestSeedflowFlagsGlobalSourceAndBadSeeds(t *testing.T) {
	runFixture(t, Seedflow, "example.com/internal/dataset", map[string]string{
		"gen.go": `package dataset

import (
	"math/rand"
	"time"
)

type Config struct{ Seed int64 }

func Bad(n int) int {
	return rand.Intn(n) // want "global math/rand source call rand.Intn"
}

func BadShuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want "global math/rand source call rand.Shuffle"
}

func BadTimeSeed() *rand.Rand {
	return rand.New(rand.NewSource(time.Now().UnixNano())) // want "time-derived rand seed"
}

func BadHardcoded() *rand.Rand {
	return rand.New(rand.NewSource(42)) // want "hard-coded rand seed"
}

func GoodParam(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

func GoodField(cfg Config) *rand.Rand {
	return rand.New(rand.NewSource(cfg.Seed ^ 0x5bf0f5249ab71d6d))
}

func GoodDerived(cfg Config, shard int) *rand.Rand {
	return rand.New(rand.NewSource(cfg.Seed + int64(shard)))
}
`,
	})
}

func TestSeedflowIgnoresNonDeterministicPackages(t *testing.T) {
	runFixture(t, Seedflow, "example.com/internal/emu", map[string]string{
		"emu.go": `package emu

import (
	"math/rand"
	"time"
)

// emu is real-time and outside the deterministic set: nothing here fires.
func Jitter() float64 {
	_ = rand.New(rand.NewSource(time.Now().UnixNano()))
	return rand.Float64()
}
`,
	})
}

func TestSeedflowAllowDirective(t *testing.T) {
	runFixture(t, Seedflow, "example.com/internal/linksim", map[string]string{
		"link.go": `package linksim

import "math/rand"

func EntropyForLiveIDs() int {
	return rand.Int() //lint:allow seedflow live test IDs want real entropy
}
`,
	})
}

// TestSeedflowCoversRanprofile: the RAN profile library is in the enforced
// deterministic set — a global rand call or hard-coded seed in a profile
// state machine would silently break (profile, seed) replay.
func TestSeedflowCoversRanprofile(t *testing.T) {
	runFixture(t, Seedflow, "example.com/internal/ranprofile", map[string]string{
		"machine.go": `package ranprofile

import "math/rand"

func BadGlobal() float64 {
	return rand.Float64() // want "global math/rand source call rand.Float64"
}

func BadHardcoded() *rand.Rand {
	return rand.New(rand.NewSource(7)) // want "hard-coded rand seed"
}

func GoodSeeded(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}
`,
	})
}

// TestSeedflowCoversMathRandV2: the v2 constructors take their seed as
// several arguments and the v2 globals have new names; linksim seeds with
// rand.NewPCG, so a hard-coded or clock-derived PCG seed must be caught the
// way a NewSource one is.
func TestSeedflowCoversMathRandV2(t *testing.T) {
	runFixture(t, Seedflow, "example.com/internal/linksim", map[string]string{
		"link.go": `package linksim

import (
	"math/rand/v2"
	"time"
)

type Config struct{ Seed int64 }

func BadHardcodedPCG() *rand.Rand {
	return rand.New(rand.NewPCG(42, 0)) // want "hard-coded rand seed"
}

func BadTimePCG() *rand.Rand {
	return rand.New(rand.NewPCG(uint64(time.Now().UnixNano()), 0)) // want "time-derived rand seed"
}

func BadTimeSecondWord(seed int64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), uint64(time.Now().UnixNano()))) // want "time-derived rand seed"
}

func BadHardcodedChaCha() *rand.Rand {
	return rand.New(rand.NewChaCha8([32]byte{})) // want "hard-coded rand seed"
}

func BadGlobals(n int) (int, int64, uint64, int32, uint, time.Duration, int) {
	return rand.IntN(n), // want "global math/rand source call rand.IntN"
		rand.Int64N(9), // want "global math/rand source call rand.Int64N"
		rand.Uint64N(9), // want "global math/rand source call rand.Uint64N"
		rand.Int32N(9), // want "global math/rand source call rand.Int32N"
		rand.UintN(9), // want "global math/rand source call rand.UintN"
		rand.N(time.Second), // want "global math/rand source call rand.N"
		rand.N[int](n) // want "global math/rand source call rand.N"
}

func GoodPCG(seed int64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), 0))
}

func GoodPCGField(cfg Config, shard int) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(cfg.Seed), uint64(shard)))
}

func GoodChaCha(key [32]byte) *rand.Rand {
	return rand.New(rand.NewChaCha8(key))
}

func GoodDraws(r *rand.Rand) (int, float64) {
	return r.IntN(10), r.NormFloat64()
}
`,
	})
}
