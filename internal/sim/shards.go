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

// ResolveShards maps a requested shard count (RunConfig.Shards,
// Options.Shards, the -shards flag) to the engine shard count of one run:
// -1 becomes the largest power of two not above GOMAXPROCS, explicit
// counts round down to a power of two (the shard router masks low block
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

// directoryRunner is the slice of the directory System surface the sweep
// drivers use, implemented by both directory.System and directory.Sharded
// so a cell runs identically whether or not it is sharded.
type directoryRunner interface {
	RunSource(ctx context.Context, src trace.Source) error
	Messages() cost.Msgs
	Counters() directory.Counters
	EverMigratory() map[memory.BlockID]bool
	InvalidationHistogram() map[int]uint64
}

// newDirectoryRunner builds the directory engine for one cell: a plain
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

// shardProbes adapts an Options.Probes factory to the per-shard factory the
// sharded engines take: every shard of a cell gets its own probe built with
// the cell's identity, so probes never see concurrent events. Returns nil
// when the options carry no factory.
func shardProbes(opts Options, app, variant string, cacheBytes, blockSize, shards int) (func(int) obs.Probe, []obs.Probe) {
	if opts.Probes == nil {
		return nil, nil
	}
	built := make([]obs.Probe, shards)
	return func(i int) obs.Probe {
		built[i] = opts.Probes(app, variant, cacheBytes, blockSize)
		return built[i]
	}, built
}

// mergeShardProbes folds a sharded cell's per-shard probes into the single
// probe recorded on the Cell, preserving the sweep contract that per-cell
// MetricsProbes merge deterministically: when every attached probe is an
// *obs.MetricsProbe they merge in shard order (bit-identical to the probe a
// sequential run would have filled); a single attached probe is returned
// as-is; anything heterogeneous cannot be merged and yields nil.
func mergeShardProbes(probes []obs.Probe) obs.Probe {
	var attached []obs.Probe
	for _, p := range probes {
		if p != nil {
			attached = append(attached, p)
		}
	}
	switch len(attached) {
	case 0:
		return nil
	case 1:
		return attached[0]
	}
	mps := make([]*obs.MetricsProbe, 0, len(attached))
	for _, p := range attached {
		mp, ok := p.(*obs.MetricsProbe)
		if !ok {
			return nil
		}
		mps = append(mps, mp)
	}
	return obs.MergeMetrics(mps...)
}
