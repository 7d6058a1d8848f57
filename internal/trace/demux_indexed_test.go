package trace

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"migratory/internal/telemetry"
)

// indexedDemuxSource builds a v3 image of n accesses (small segments, so
// the source's decode workers have real parallel structure) and returns a
// fresh IndexedFileSource.
func indexedDemuxSource(t *testing.T, n, decoders int) (*IndexedFileSource, []Access) {
	t.Helper()
	accs := indexTestAccesses(n)
	data := encodeMTR3(t, Header{BlockSize: 16, PageSize: 4096, Nodes: 8}, accs, 2048)
	src, err := NewIndexedSource(bytes.NewReader(data), int64(len(data)), decoders)
	if err != nil {
		t.Fatal(err)
	}
	return src, accs
}

// shardCollector gathers per-shard accesses and steps. Each shard's
// consume callback runs on that shard's consumer goroutine only, so plain
// slices suffice.
type shardCollector struct {
	accs  [][]Access
	steps [][]uint64
}

func newShardCollector(shards int) *shardCollector {
	return &shardCollector{accs: make([][]Access, shards), steps: make([][]uint64, shards)}
}

func (c *shardCollector) consume(shard int, b ShardBatch) error {
	c.accs[shard] = append(c.accs[shard], b.Accs...)
	c.steps[shard] = append(c.steps[shard], b.Steps...)
	return nil
}

// TestDemuxIndexedMatchesSlice checks that demuxing an indexed source,
// whose segments decode on several workers ahead of the producer,
// delivers exactly what demuxing the same accesses from memory does —
// per shard, in order, with the same global steps.
func TestDemuxIndexedMatchesSlice(t *testing.T) {
	const shards = 4
	for _, withSteps := range []bool{true, false} {
		src, accs := indexedDemuxSource(t, 30_000, 4)
		route := func(a Access) int { return int(a.Addr/16) % shards }

		want := newShardCollector(shards)
		if err := Demux(nil, NewSliceSource(accs), shards, withSteps, nil, route, want.consume); err != nil {
			t.Fatal(err)
		}

		var stats telemetry.RunStats
		got := newShardCollector(shards)
		if err := Demux(nil, src, shards, withSteps, &stats, route, got.consume); err != nil {
			t.Fatal(err)
		}
		src.Close()

		for s := 0; s < shards; s++ {
			if len(got.accs[s]) != len(want.accs[s]) {
				t.Fatalf("steps=%v shard %d: %d accesses, want %d", withSteps, s, len(got.accs[s]), len(want.accs[s]))
			}
			for i := range got.accs[s] {
				if got.accs[s][i] != want.accs[s][i] {
					t.Fatalf("steps=%v shard %d access %d: %+v != %+v", withSteps, s, i, got.accs[s][i], want.accs[s][i])
				}
			}
			if withSteps {
				for i := range got.steps[s] {
					if got.steps[s][i] != want.steps[s][i] {
						t.Fatalf("shard %d step %d: %d != %d", s, i, got.steps[s][i], want.steps[s][i])
					}
				}
			} else if len(got.steps[s]) != 0 {
				t.Fatalf("shard %d carries %d steps without a probe", s, len(got.steps[s]))
			}
		}
		if stats.DemuxBatches.Load() == 0 {
			t.Fatal("no batches accounted")
		}
		for i := range stats.QueueDepth {
			if d := stats.QueueDepth[i].Load(); d != 0 {
				t.Fatalf("slot %d depth %d after completion, want 0", i, d)
			}
		}
	}
}

func TestDemuxIndexedConsumeError(t *testing.T) {
	src, _ := indexedDemuxSource(t, 30_000, 4)
	defer src.Close()
	boom := errors.New("boom")
	err := Demux(nil, src, 4, false, nil,
		func(a Access) int { return int(a.Addr/16) % 4 },
		func(shard int, b ShardBatch) error {
			if shard == 2 {
				return boom
			}
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the consume error", err)
	}
}

// TestDemuxIndexedDecodeError corrupts one segment: the decode error must
// surface from Demux, nothing from the corrupt segment onward may reach a
// consumer, and the queue-depth gauges must drain back to zero.
func TestDemuxIndexedDecodeError(t *testing.T) {
	accs := indexTestAccesses(30_000)
	data := encodeMTR3(t, Header{BlockSize: 16, PageSize: 4096, Nodes: 8}, accs, 2048)
	idx, err := ReadIndex(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	seg := idx.Segments[3]
	data[seg.Off+seg.Len/2] ^= 0x40 // segment CRC will fail at decode

	src, err := NewIndexedSource(bytes.NewReader(data), int64(len(data)), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	var stats telemetry.RunStats
	var mu sync.Mutex
	maxStep := uint64(0)
	err = Demux(nil, src, 4, true, &stats,
		func(a Access) int { return int(a.Addr/16) % 4 },
		func(shard int, b ShardBatch) error {
			mu.Lock()
			for _, s := range b.Steps {
				if s >= maxStep {
					maxStep = s + 1
				}
			}
			mu.Unlock()
			return nil
		})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
	if maxStep > seg.StartIndex {
		t.Fatalf("delivered step %d from the corrupt segment (starts at %d)", maxStep-1, seg.StartIndex)
	}
	for i := range stats.QueueDepth {
		if d := stats.QueueDepth[i].Load(); d != 0 {
			t.Fatalf("slot %d depth %d after error teardown, want 0", i, d)
		}
	}
}

func TestDemuxIndexedCancel(t *testing.T) {
	src, _ := indexedDemuxSource(t, 50_000, 4)
	defer src.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	n := 0
	err := Demux(ctx, src, 4, false, nil,
		func(a Access) int { return int(a.Addr/16) % 4 },
		func(shard int, b ShardBatch) error {
			mu.Lock()
			n += len(b.Accs)
			if n > 5000 {
				cancel()
			}
			mu.Unlock()
			return nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestQueueDepthMultiProducer is the -race pin for the QueueDepth
// contract in the parallel-sweep case: four concurrent Demux calls (two
// over in-memory sources, two over indexed sources decoding on their own
// workers) share one RunStats. The gauge observed at every consumption is
// non-negative, and it returns exactly to zero when all producers finish —
// increments happen pre-hand-off and decrements exactly once, so no
// interleaving double-counts or dips below zero.
func TestQueueDepthMultiProducer(t *testing.T) {
	const shards = 4
	var stats telemetry.RunStats
	route := func(a Access) int { return int(a.Addr/16) % shards }

	var wg sync.WaitGroup
	errs := make([]error, 4)
	var dips sync.Map
	consume := func(shard int, b ShardBatch) error {
		// The consumer's own decrement has already happened; any negative
		// reading means some producer published before incrementing.
		if d := stats.QueueDepth[shard%telemetry.MaxQueueShards].Load(); d < 0 {
			dips.Store(shard, d)
		}
		return nil
	}
	accs := indexTestAccesses(20_000)
	data := encodeMTR3(t, Header{BlockSize: 16, PageSize: 4096, Nodes: 8}, accs, 2048)
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			if p < 2 {
				errs[p] = Demux(nil, NewSliceSource(accs), shards, p == 0, &stats, route, consume)
				return
			}
			src, err := NewIndexedSource(bytes.NewReader(data), int64(len(data)), 2)
			if err != nil {
				errs[p] = err
				return
			}
			defer src.Close()
			errs[p] = Demux(nil, src, shards, p == 2, &stats, route, consume)
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("producer %d: %v", p, err)
		}
	}
	dips.Range(func(k, v any) bool {
		t.Errorf("shard %v saw negative queue depth %v", k, v)
		return true
	})
	for i := range stats.QueueDepth {
		if d := stats.QueueDepth[i].Load(); d != 0 {
			t.Fatalf("slot %d depth %d after all producers finished, want 0", i, d)
		}
	}
	if stats.DemuxBatches.Load() == 0 {
		t.Fatal("no batches accounted")
	}
}
