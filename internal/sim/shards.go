package sim

import (
	"context"
	"math/bits"
	"runtime"

	"migratory/internal/cost"
	"migratory/internal/directory"
	"migratory/internal/memory"
	"migratory/internal/obs"
	"migratory/internal/trace"
)

// floorPow2 rounds n down to a power of two (n must be >= 1).
func floorPow2(n int) int { return 1 << (bits.Len(uint(n)) - 1) }

// ResolveShards maps a requested shard count (RunConfig.Shards, inspect's
// -shards flag) to the engine shard count of one run: -1 becomes the
// largest power of two not above GOMAXPROCS, explicit counts round down to a power of two (the shard router masks low block
// bits), and finite caches cap the count at the per-cache set count so
// every shard owns at least one set. The result is always >= 1, and
// resolving a resolved count returns it unchanged.
func ResolveShards(shards, cacheBytes, blockSize int) int {
	n := shards
	if n < 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n <= 1 {
		return 1
	}
	n = floorPow2(n)
	if max := directory.MaxShards(cacheBytes, blockSize, 0); max > 0 && n > max {
		n = max
	}
	return n
}

// directoryRunner is the slice of the directory System surface Run uses,
// implemented by both directory.System and directory.Sharded so a run
// behaves identically whether or not it is sharded.
type directoryRunner interface {
	RunSource(ctx context.Context, src trace.Source) error
	Messages() cost.Msgs
	Counters() directory.Counters
	EverMigratory() map[memory.BlockID]bool
	InvalidationHistogram() map[int]uint64
}

// newDirectoryRunner builds the directory engine for one run: a plain
// System when shards <= 1, a set-sharded group otherwise. probes (optional)
// supplies the per-shard probes; with shards <= 1 only probes(0) is used.
func newDirectoryRunner(cfg directory.Config, shards int, probes func(int) obs.Probe) (directoryRunner, error) {
	if shards <= 1 {
		if probes != nil {
			cfg.Probe = probes(0)
		}
		return directory.New(cfg)
	}
	return directory.NewSharded(cfg, shards, probes)
}
