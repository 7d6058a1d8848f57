package trace

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"migratory/internal/telemetry"
)

// ShardBatch is one routed chunk of accesses delivered to a demux consumer.
// Accs holds the accesses in their original relative order. Steps, when the
// demux was asked for it, is parallel to Accs and holds each access's index
// in the global interleaving — sharded engines stamp emitted events with it
// so probe-visible step distances match the sequential run exactly.
type ShardBatch struct {
	Accs  []Access
	Steps []uint64
}

// stepPool recycles the Steps arrays that ride along with routed batches,
// mirroring batchPool for the access buffers themselves.
var stepPool = sync.Pool{
	New: func() any {
		s := make([]uint64, 0, DefaultBatchSize)
		return &s
	},
}

func getSteps() []uint64 {
	return (*stepPool.Get().(*[]uint64))[:0]
}

func putSteps(s []uint64) {
	if cap(s) < DefaultBatchSize {
		return
	}
	s = s[:0:DefaultBatchSize]
	stepPool.Put(&s)
}

func putShardBatch(b ShardBatch) {
	PutBatch(b.Accs)
	if b.Steps != nil {
		putSteps(b.Steps)
	}
}

// Demux fans a single access stream out to per-shard consumers. The
// producer (the calling goroutine) pulls batches from src, routes each
// access with route (which must return a value in [0, shards)), and
// accumulates per-shard batches of up to DefaultBatchSize accesses; full
// batches are handed to one consumer goroutine per shard over a bounded
// channel, so a slow shard applies backpressure instead of queueing
// unbounded work. Within one shard, consume(shard, batch) calls observe
// every access in its original relative order — the property the sharded
// engines rely on for bit-identical counters. Decode parallelism lives in
// the source: an IndexedFileSource decodes segments on its own workers and
// hands the producer the reassembled sequential stream.
//
// When withSteps is set, each batch carries the global access indices in
// ShardBatch.Steps. Batch buffers are pooled; consume must not retain the
// batch after returning.
//
// stats, when non-nil, receives the demux accounting: routed batches
// (DemuxBatches), per-shard in-flight depth (QueueDepth), and producer time
// spent blocked on a full shard queue (DemuxStalls / DemuxStallNs) — the
// live back-pressure signal of a sharded run. The accounting sits on batch
// hand-offs, never the per-access loop. QueueDepth follows the
// multi-producer contract documented on telemetry.RunStats: the increment
// happens strictly before the batch is visible to a consumer, the
// decrement exactly once at consumption, so the gauge never dips negative
// and never double-counts even when several concurrent Demux calls (the
// sharded cells of a parallel sweep) share one RunStats.
//
// Demux returns after every consumer has finished. On failure the error
// precedence is: context cancellation, then the lowest-numbered shard's
// consume error, then the source error.
func Demux(ctx context.Context, src Reader, shards int, withSteps bool,
	stats *telemetry.RunStats, route func(Access) int, consume func(shard int, b ShardBatch) error) error {
	if shards < 1 {
		return fmt.Errorf("trace: demux shards %d (want >= 1)", shards)
	}
	var ctxDone <-chan struct{}
	if ctx != nil {
		ctxDone = ctx.Done()
	}

	chans := make([]chan ShardBatch, shards)
	for i := range chans {
		chans[i] = make(chan ShardBatch, 2)
	}
	// stop is closed at the first failure so a blocked producer send (or a
	// long source read) doesn't outlive the run.
	stop := make(chan struct{})
	var stopOnce sync.Once
	halt := func() { stopOnce.Do(func() { close(stop) }) }

	consumeErrs := make([]error, shards)
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			for b := range chans[shard] {
				if stats != nil {
					stats.QueueDepth[shard%telemetry.MaxQueueShards].Add(-1)
				}
				if consumeErrs[shard] == nil {
					if err := consume(shard, b); err != nil {
						consumeErrs[shard] = err
						halt()
					}
				}
				putShardBatch(b)
			}
		}(i)
	}

	pending := make([]ShardBatch, shards)
	newPending := func() ShardBatch {
		b := ShardBatch{Accs: GetBatch()[:0]}
		if withSteps {
			b.Steps = getSteps()
		}
		return b
	}
	for i := range pending {
		pending[i] = newPending()
	}
	// send hands pending[shard] to its consumer, or recycles it when the
	// run is being torn down; either way pending[shard] is replaced. With
	// stats attached it first tries a non-blocking hand-off; only when the
	// shard queue is full does it fall back to the blocking path and charge
	// the wait to DemuxStalls/DemuxStallNs.
	send := func(shard int) bool {
		if stats != nil {
			// Count the batch in flight before the hand-off: if the consumer
			// drained it before the producer incremented, the gauge would dip
			// below zero. The stop path undoes the optimistic increment.
			depth := &stats.QueueDepth[shard%telemetry.MaxQueueShards]
			depth.Add(1)
			select {
			case chans[shard] <- pending[shard]:
			default:
				stats.DemuxStalls.Add(1)
				t0 := time.Now()
				select {
				case chans[shard] <- pending[shard]:
					stats.DemuxStallNs.Add(uint64(time.Since(t0)))
				case <-stop:
					stats.DemuxStallNs.Add(uint64(time.Since(t0)))
					depth.Add(-1)
					putShardBatch(pending[shard])
					pending[shard] = newPending()
					return false
				}
			}
			stats.DemuxBatches.Add(1)
			pending[shard] = newPending()
			return true
		}
		select {
		case chans[shard] <- pending[shard]:
			pending[shard] = newPending()
			return true
		case <-stop:
			putShardBatch(pending[shard])
			pending[shard] = newPending()
			return false
		}
	}

	in := GetBatch()
	var srcErr error
	var step uint64
	halted := false
producer:
	for {
		select {
		case <-ctxDone:
			halt()
			halted = true
			break producer
		case <-stop:
			halted = true
			break producer
		default:
		}
		n, err := FillBatch(src, in)
		for _, a := range in[:n] {
			shard := route(a)
			p := &pending[shard]
			p.Accs = append(p.Accs, a)
			if withSteps {
				p.Steps = append(p.Steps, step)
			}
			step++
			if len(p.Accs) == DefaultBatchSize {
				if !send(shard) {
					halted = true
					break producer
				}
			}
		}
		if err != nil {
			if !errors.Is(err, io.EOF) {
				srcErr = err
			}
			break
		}
	}
	if !halted {
		for i := range pending {
			if len(pending[i].Accs) > 0 && !send(i) {
				break
			}
		}
	}
	for i := range pending {
		putShardBatch(pending[i])
	}
	PutBatch(in)
	for i := range chans {
		close(chans[i])
	}
	wg.Wait()

	if ctx != nil && ctx.Err() != nil {
		return ctx.Err()
	}
	for _, err := range consumeErrs {
		if err != nil {
			return err
		}
	}
	return srcErr
}
