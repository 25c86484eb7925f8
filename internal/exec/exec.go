// Package exec is the bounded worker pool behind the two query paths that
// fan out: k-NN refinement (internal/core's exactDistances, GOMAXPROCS
// workers, one instantiation per item) and the cluster coordinator's
// scatter (internal/cluster's gather, one worker per shard). Results are
// slotted by input index, so merging them is deterministic and left to the
// caller.
//
// Scheduling is chunked work-claiming: a shared atomic cursor hands out
// fixed-size index chunks, so a worker that finishes its claim early
// "steals" the next chunk instead of idling — cheap dynamic load balancing
// without per-item contention. The first error cancels the run through a
// derived context.Context; callers can also pass their own context to stop
// a run early.
package exec

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Process-wide pool behaviour, exported through the /metrics registry.
var (
	mRuns    = obs.Default().Counter("esidb_parallel_runs_total")
	mTasks   = obs.Default().Counter("esidb_parallel_tasks_total")
	mSteals  = obs.Default().Counter("esidb_parallel_steals_total")
	mCancels = obs.Default().Counter("esidb_parallel_cancels_total")
)

// chunksPerWorker sizes the claim granularity: each worker's fair share is
// split this many ways, so the tail of a skewed workload rebalances without
// making the cursor a hot spot.
const chunksPerWorker = 4

// Stats describes one ForEach run.
type Stats struct {
	// Workers is the number of goroutines the run actually used (after
	// clamping to the task count).
	Workers int
	// Tasks is how many items completed evaluation.
	Tasks int64
	// Steals counts chunk claims beyond each worker's first — how often a
	// worker that drained its claim picked up more work.
	Steals int64
	// Canceled reports that the run stopped early (context or error).
	Canceled bool
}

// Record folds the run's counters into a query trace (nil-safe). Callers
// record only genuinely parallel runs so serial traces stay unchanged.
func (s Stats) Record(tr *obs.Trace) {
	tr.Count(obs.TParallelWorkers, int64(s.Workers))
	tr.Count(obs.TParallelTasks, s.Tasks)
	tr.Count(obs.TParallelSteals, s.Steals)
	if s.Canceled {
		tr.Count(obs.TParallelCancels, 1)
	}
}

// ForEach evaluates fn(worker, i) for every i in [0, n) on up to workers
// goroutines. fn receives the worker's index (0 ≤ worker < workers) so
// callers can keep per-worker accumulators and merge them deterministically
// afterwards. The first error cancels the remaining work and is returned;
// cancellation of ctx does the same with ctx's error. With workers ≤ 1 (or
// n ≤ 1) the items run inline on the calling goroutine in index order —
// byte-for-byte the serial behaviour.
func ForEach(ctx context.Context, workers, n int, fn func(worker, i int) error) (Stats, error) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return forEachSerial(ctx, n, fn)
	}
	mRuns.Inc()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	chunk := n / (workers * chunksPerWorker)
	if chunk < 1 {
		chunk = 1
	}
	var (
		cursor, tasks, steals atomic.Int64
		errOnce               sync.Once
		firstErr              error
		wg                    sync.WaitGroup
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for claims := 0; ; claims++ {
				if ctx.Err() != nil {
					return
				}
				lo := cursor.Add(int64(chunk)) - int64(chunk)
				if lo >= int64(n) {
					return
				}
				if claims > 0 {
					steals.Add(1)
				}
				hi := lo + int64(chunk)
				if hi > int64(n) {
					hi = int64(n)
				}
				for i := lo; i < hi; i++ {
					if ctx.Err() != nil {
						return
					}
					if err := fn(w, int(i)); err != nil {
						fail(err)
						return
					}
					tasks.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	st := Stats{Workers: workers, Tasks: tasks.Load(), Steals: steals.Load()}
	mTasks.Add(st.Tasks)
	mSteals.Add(st.Steals)
	if firstErr == nil {
		// No task failed; the only way the derived context is done here is
		// that the parent was canceled.
		firstErr = ctx.Err()
	}
	if firstErr != nil {
		st.Canceled = true
		mCancels.Inc()
	}
	return st, firstErr
}

// forEachSerial is the workers ≤ 1 path: identical to the pre-parallel
// query loops, plus context cancellation between items.
func forEachSerial(ctx context.Context, n int, fn func(worker, i int) error) (Stats, error) {
	st := Stats{Workers: 1}
	if n < 0 {
		n = 0
	}
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			st.Canceled = true
			mCancels.Inc()
			return st, err
		}
		if err := fn(0, i); err != nil {
			st.Canceled = true
			mCancels.Inc()
			return st, err
		}
		st.Tasks++
	}
	return st, nil
}

// Scatter evaluates fn(i) for every i in [0, n) concurrently and collects
// a per-index error slice instead of stopping at the first failure — the
// fan-out shape a scatter-gather coordinator needs, where one failed shard
// must not cancel its siblings. Only cancellation of ctx aborts the run;
// indexes that never got to run are then marked with the context's error
// so callers can tell "failed" from "not attempted but skipped".
func Scatter(ctx context.Context, workers, n int, fn func(i int) error) ([]error, Stats) {
	errs := make([]error, n)
	ran := make([]bool, n)
	st, err := ForEach(ctx, workers, n, func(_, i int) error {
		ran[i] = true
		errs[i] = fn(i)
		return nil
	})
	if err != nil {
		for i := range errs {
			if !ran[i] {
				errs[i] = err
			}
		}
	}
	return errs, st
}
