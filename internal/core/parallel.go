package core

import (
	"context"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/rbm"
)

// Core-side glue for the parallel candidate-evaluation engine
// (internal/exec). Every query path funnels its per-candidate loop through
// these helpers, which shard the candidate list across the configured
// workers, keep one rbm.Stats per worker (so no shared mutable counters),
// and merge both verdicts and statistics in input order — making parallel
// results element-for-element identical to the serial walk.

// filterEdited evaluates check over the candidate ids with the database's
// configured parallelism, propagating the query's ctx into the worker
// pool. check receives a worker-private *rbm.Stats; the merged total is
// returned. Pool counters are recorded into tr only when the run actually
// fanned out.
func (db *DB) filterEdited(ctx context.Context, ids []uint64, tr *obs.Trace, check func(id uint64, st *rbm.Stats) (bool, error)) ([]uint64, rbm.Stats, error) {
	workers := db.workers()
	stats := make([]rbm.Stats, workers)
	matched, pst, err := exec.FilterIDs(ctx, workers, ids, func(w int, id uint64) (bool, error) {
		return check(id, &stats[w])
	})
	if pst.Workers > 1 {
		pst.Record(tr)
	}
	var total rbm.Stats
	for i := range stats {
		total.Add(stats[i])
	}
	if err != nil {
		return nil, total, err
	}
	return matched, total, nil
}
