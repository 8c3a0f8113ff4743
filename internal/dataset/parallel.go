package dataset

import (
	"math/rand"

	"github.com/mobilebandwidth/swiftest/internal/par"
	"github.com/mobilebandwidth/swiftest/internal/stats"
)

// ShardSize is the fixed shard width of the deterministic parallel
// generator: record i of a stream always belongs to shard i/ShardSize,
// regardless of worker count. Changing it changes GenerateParallel's output
// (each shard re-seeds), so it is a format constant, not a tuning knob.
const ShardSize = 8192

// shardSeed derives the RNG seed of one shard from the base seed. A
// splitmix-style avalanche (stats.SplitMix64) decorrelates neighbouring
// shards even though their (seed, index) inputs differ by one bit.
func shardSeed(base int64, shard int) int64 {
	return int64(stats.SplitMix64(uint64(base) ^ stats.SplitMix64(uint64(shard)+stats.SplitMix64Gamma)))
}

// Shard returns a fresh generator for shard index s of this generator's
// stream: same calibration tables (shared, read-only), RNG seeded from
// (Seed, s). Shards of the same generator are independent and may be
// advanced concurrently.
func (g *Generator) Shard(s int) *Generator {
	return &Generator{
		cfg: g.cfg,
		rng: rand.New(rand.NewSource(shardSeed(g.cfg.Seed, s))),
		tab: g.tab,
	}
}

// GenerateParallel draws records 0..n-1 of the sharded stream using the
// given number of workers (workers <= 0 means GOMAXPROCS). The output is
// byte-identical for every worker count — record i is always record
// i%ShardSize of shard i/ShardSize — so parallelism is a pure throughput
// knob, never a semantic one. Note the sharded stream is a different (still
// deterministic) stream than the serial Generate stream of the same seed.
func (g *Generator) GenerateParallel(n, workers int) []Record {
	return g.GenerateRange(0, n, workers)
}

// GenerateRange draws records start..start+count-1 of the sharded stream.
// Successive calls with adjacent ranges tile into exactly the slice a
// single GenerateParallel(start+count, w) call would produce, which lets
// emitters stream unbounded datasets in bounded memory.
func (g *Generator) GenerateRange(start, count, workers int) []Record {
	if count <= 0 {
		return nil
	}
	out := make([]Record, count)
	firstShard := start / ShardSize
	numShards := (start+count-1)/ShardSize - firstShard + 1
	// Each shard writes a disjoint range of out, so no locks and no
	// post-hoc stitching.
	par.For(numShards, workers, func(i int) error {
		s := firstShard + i
		sg := g.Shard(s)
		shardStart := s * ShardSize
		// Skip the prefix of a shard that falls before start: the draws
		// must still happen so record identities hold.
		lo := max(shardStart, start)
		for range lo - shardStart {
			sg.Next()
		}
		for j := lo; j < min(shardStart+ShardSize, start+count); j++ {
			out[j-start] = sg.Next()
		}
		return nil
	})
	return out
}
