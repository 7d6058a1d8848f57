package sim

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"migratory/internal/obs"
)

// The sweeps of §4 are embarrassingly parallel: every (app, policy, cache,
// block) cell is an independent simulation over a shared read-only trace.
// runIndexed is the one concurrency primitive the package uses — a
// stdlib-only worker pool that executes fn(0) … fn(n-1) on up to `workers`
// goroutines, pulling indices from a shared atomic counter.
//
// Determinism: callers write each result into slot i of a preallocated
// slice and assemble the output in index order afterwards, so results are
// identical regardless of how the cells were scheduled.
//
// Cancellation: no new cell starts once ctx is done, and runIndexed
// returns ctx.Err(); cells already running notice the same context through
// the engines' RunSource loops, so a sweep stops mid-cell rather than
// finishing the cells in flight.
//
// Errors: the lowest-indexed error is returned and new work stops being
// issued as soon as any error is observed (tasks already running finish).
// With workers <= 1 the loop degenerates to the plain sequential sweep.
func runIndexed(ctx context.Context, n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next atomic.Int64
		stop atomic.Bool

		mu      sync.Mutex
		errIdx  = -1
		firstEr error
	)
	report := func(i int, err error) {
		mu.Lock()
		if errIdx == -1 || i < errIdx {
			errIdx, firstEr = i, err
		}
		mu.Unlock()
		stop.Store(true)
	}

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					report(i, err)
					return
				}
			}
		}()
	}
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if err := ctx.Err(); err != nil {
		// Cancellation wins: in-flight cells abort with the same ctx error,
		// and the caller asked for exactly this outcome.
		return err
	}
	return firstEr
}

// workers resolves an Options.Parallelism value (0 = GOMAXPROCS) to a
// positive worker count.
func (o Options) workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// cellRun is one cell of a sweep: the run to execute, plus the app and
// variant (policy or bus-protocol) names its probe is built for and its
// error is labelled with.
type cellRun struct {
	app, variant string
	cfg          RunConfig
}

// runCells is the one fan-out every sweep driver uses: it executes each
// cell's config through Run on the Options.Parallelism worker pool and
// hands cell i's result, and the probe it was instrumented with (nil when
// Options.Probes is unset), to done(i, …) on the worker goroutine. done
// must write only slot i of the caller's output, and should keep only
// what it needs: a directory result retains its whole engine. The sweep's
// shared resources apply to every run: Context cancels the sweep
// (returning ctx.Err()), Stats receives the runs' counters and the cell
// progress (CellsTotal up front, CellsDone per finished cell), and Cache
// backs every trace file the cells open. Cells always run unsharded.
func (o Options) runCells(runs []cellRun, done func(i int, res *RunResult, probe obs.Probe)) error {
	ctx := o.ctx()
	if o.Stats != nil {
		o.Stats.CellsTotal.Add(uint64(len(runs)))
	}
	return runIndexed(ctx, len(runs), o.workers(), func(i int) error {
		r := runs[i]
		cfg := r.cfg
		cfg.Stats, cfg.OpenSource = o.Stats, o.cachedOpen(cfg.OpenSource)
		var probe obs.Probe
		if o.Probes != nil {
			probe = o.Probes(r.app, r.variant, cfg.CacheBytes, cfg.withDefaults().BlockSize)
			cfg.Probes = func(int) obs.Probe { return probe }
		}
		res, err := Run(ctx, cfg)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			return fmt.Errorf("%s/%s: %w", r.app, r.variant, err)
		}
		done(i, res, probe)
		if o.Stats != nil {
			o.Stats.CellsDone.Add(1)
		}
		return nil
	})
}
