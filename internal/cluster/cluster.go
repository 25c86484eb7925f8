// Package cluster shards the database across N partitions and answers
// queries over all of them — the scale-out layer the paper's single-node
// design grows into.
//
// Partitioning is *base-affine*: a consistent-hash ring places every
// binary image by its own id and every edited sequence by its base's id,
// so a BWM main component — the base image plus all edited derivatives
// clustered under it (paper §3.1) — lives entirely on one shard. RBM and
// BWM evaluation then stay shard-local and embarrassingly parallel; the
// only cross-shard work is merging result sets. Range/compound/multirange
// answers merge by set union with dedup; k-NN merges per-shard top-k heaps
// into a global (dist,id)-ordered top-k, which is provably identical to a
// single node's answer because the single-node heap keeps the true
// k-minimum under the same total order.
//
// A Merge operation may reference a binary image homed on another shard;
// the coordinator replicates such targets (same id, same raster) onto the
// referencing shard at insert time, so sequence evaluation never leaves
// the shard. Replicas can make the same id match on two shards, which the
// union dedup folds back out.
//
// Failure handling is degraded, not brittle: a shard that stays down past
// its retry budget is reported in Result.Missed with Partial=true and the
// query answers from the survivors — a subset, never a false positive,
// because every object is evaluated wholly on its home shard. A health
// checker flips shards up→suspect→down and back, published as
// esidb_cluster_shard_up gauges.
package cluster

import (
	"fmt"
	"strings"

	mmdb "repro"
	"repro/internal/obs"
)

// Process-wide transport counters (per-shard latency lives in labeled
// histograms created on first use).
var (
	mRetries    = obs.Default().Counter("esidb_cluster_retries_total")
	mResyncs    = obs.Default().Counter("esidb_replica_resyncs_total")
	mPromotions = obs.Default().Counter("esidb_replica_promotions_total")
)

// Result is a merged set-query (range/compound/multirange) answer.
type Result struct {
	// IDs is the deduplicated union of per-shard matches, ascending.
	IDs []uint64
	// Stats sums the per-shard evaluation work.
	Stats mmdb.QueryStats
	// Partial marks a degraded answer; Missed lists the shards that did
	// not contribute (down past their retry budget, or skipped as down).
	Partial bool
	Missed  []string
}

// KNNResult is a merged k-NN answer: the global top-k in (dist,id) order.
type KNNResult struct {
	Matches []mmdb.Match
	Partial bool
	Missed  []string
}

// ParseMode maps the wire mode string to an execution mode by delegating
// to the core mode registry — the same table the HTTP server uses, exposed
// here for the in-process transport and the CLI. The error enumerates
// every valid name.
func ParseMode(s string) (mmdb.Mode, error) {
	m, err := mmdb.ParseMode(s)
	if err != nil {
		return 0, fmt.Errorf("cluster: unknown mode %q (valid: %s)", s, strings.Join(mmdb.ModeNames(), ", "))
	}
	return m, nil
}

// ParseMetric maps the wire metric string to a distance metric.
func ParseMetric(s string) (mmdb.Metric, error) {
	switch s {
	case "", "l1":
		return mmdb.MetricL1, nil
	case "l2":
		return mmdb.MetricL2, nil
	case "intersection":
		return mmdb.MetricIntersection, nil
	default:
		return 0, fmt.Errorf("cluster: unknown metric %q", s)
	}
}
