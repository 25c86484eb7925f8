package core

import (
	"context"
	"errors"
	"math"
	"sort"

	"repro/internal/catalog"
	"repro/internal/histogram"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/rbm"
	"repro/internal/rules"
	"repro/internal/stree"
)

// ModeIndexed — the bounds S-tree strategy. Every other mode evaluates all
// n candidates (parallelized, but O(n)); this one descends a bulk-loaded
// tree whose inner nodes hold the union [min,max] percentage box of their
// subtree, so a range query visits only intersecting nodes and a node box
// fully inside the query admits its whole subtree without per-candidate
// rule walks. Similarity search (knn.go) runs best-first over the same tree
// in every mode.
//
// Exactness is what makes the mode oracle-equivalent to RBM/BWM rather
// than approximate:
//
//   - A binary image's box is the degenerate point of its normalized
//     histogram, and histogram.Pct and histogram.Normalized divide the
//     same ints by the same total — the floats are bit-identical, so a
//     box-vs-slab test IS query.Range.MatchesExact.
//   - An edited image's box is rules.Bounds.PctRange per bin — the same
//     floats Bounds.Overlaps compares — so the single-bin leaf test is the
//     RBM admission test itself.
//   - Multi-bin (summed) classifications use float sums with an epsilon of
//     slack on the Full/None margins; partially overlapping leaves re-check
//     exactly (integer-summed bounds for edited, catalog histograms for
//     binary), so float drift can cost a node descent, never a wrong answer.
//
// The tree is built lazily: the first indexed or similarity query bulk-loads
// it from the catalog under db.mu, paying one rule walk per edited image.
// After that every write maintains it incrementally — writers never
// invalidate it, so a concurrent query's snapshot is always a complete
// published version and the leaves are the one store of per-candidate bounds
// vectors — and once update/delete debt passes the tree's threshold the next
// such query re-packs the items the tree already holds, restoring packing
// quality without touching the catalog or the rule engine. Queries read
// lock-free snapshots; an object deleted after the snapshot was taken may
// still be returned (the same read-committed window every scan mode has
// between taking its id-list snapshot and testing an id).
var (
	mIndexNodesVisited    = obs.Default().Counter("esidb_index_nodes_visited_total")
	mIndexSubtreeAdmitted = obs.Default().Counter("esidb_index_subtree_admitted_total")
	mIndexLeafChecks      = obs.Default().Counter("esidb_index_leaf_checks_total")
	mIndexRebuilds        = obs.Default().Counter("esidb_index_rebuilds_total")
)

// sidxFanout is the S-tree node capacity (children per inner node, items per
// leaf).
const sidxFanout = 16

// sidxSumEps is the slack on multi-bin Full/None margins. Summing ≤ bins
// float terms keeps the error under ~1e-13; 1e-9 is comfortably past it
// while far below any meaningful percentage difference.
const sidxSumEps = 1e-9

// sidxEntry is the per-item payload stored in the S-tree.
type sidxEntry struct {
	edited bool
	// total and minmax are the exact integers behind an edited item's float
	// box, used by multi-bin leaf tests: the image's pixel total (the rules
	// track one total, the same in every bin) and bin b's count bounds at
	// minmax[2b], minmax[2b+1]. minmax is nil for binary images, and for
	// edited images whose bounds could not be computed or packed at insert
	// time (those get the never-prunable universal box and are decided
	// exactly at the leaf).
	total  int
	minmax []int32
}

// sumPct is sumBounds over the packed vector.
func (e *sidxEntry) sumPct(bins []int) (lo, hi float64) {
	minSum, maxSum := 0, 0
	for _, b := range bins {
		minSum += int(e.minmax[2*b])
		maxSum += int(e.minmax[2*b+1])
	}
	return pctInterval(minSum, maxSum, e.total)
}

// sidxBinaryItem builds the S-tree item for a binary image: a point box at
// its normalized histogram.
func sidxBinaryItem(id uint64, hist *histogram.Histogram) stree.Item {
	p := hist.Normalized()
	return stree.Item{ID: id, Lo: p, Hi: p, Data: &sidxEntry{}}
}

// editedBounds computes an edited image's full per-bin bounds vector with
// one counted rule walk over its sequence. The indexed paths pay it only at
// S-tree item construction and on the universal-box leaf fallback; the
// multi-bin walk and the k-NN scans pay it per candidate.
func (db *DB) editedBounds(obj *catalog.Object, tr *obs.Trace) ([]rules.Bounds, error) {
	base, err := db.cat.Binary(obj.Seq.BaseID)
	if err != nil {
		return nil, err
	}
	rbm.CountRuleWalk(obj.Seq.Ops, tr)
	return db.engine.BoundsAll(base.Hist, base.W, base.H, obj.Seq.Ops)
}

// sidxEditedItem builds the S-tree item for an edited image: its per-bin
// bounds box. If the bounds cannot be computed, or do not pack (totals that
// differ between bins, a count past int32), the item gets the universal
// box, so index maintenance can't lose a candidate.
func (db *DB) sidxEditedItem(id uint64) stree.Item {
	bins := db.cfg.Quantizer.Bins()
	obj, err := db.cat.Edited(id)
	var bounds []rules.Bounds
	if err == nil {
		bounds, err = db.editedBounds(obj, nil)
	}
	if err != nil || len(bounds) != bins {
		return sidxUniversalItem(id, bins)
	}
	e := &sidxEntry{edited: true, total: bounds[0].Total, minmax: make([]int32, 2*bins)}
	lo := make([]float64, bins)
	hi := make([]float64, bins)
	for i, b := range bounds {
		if b.Total != e.total || b.Min < math.MinInt32 || b.Max > math.MaxInt32 {
			return sidxUniversalItem(id, bins)
		}
		e.minmax[2*i], e.minmax[2*i+1] = int32(b.Min), int32(b.Max)
		lo[i], hi[i] = b.PctRange()
	}
	return stree.Item{ID: id, Lo: lo, Hi: hi, Data: e}
}

// sidxUniversalItem is the item of an edited image with no bounds vector:
// the [0,1] box on every bin — never pruned, never admitted geometrically,
// always decided exactly at the leaf.
func sidxUniversalItem(id uint64, bins int) stree.Item {
	hi := make([]float64, bins)
	for i := range hi {
		hi[i] = 1
	}
	return stree.Item{ID: id, Lo: make([]float64, bins), Hi: hi, Data: &sidxEntry{edited: true}}
}

// sidxInsertBinaryLocked maintains the index across a binary insert.
// Caller holds db.mu; a no-op until the first indexed query builds the
// tree.
func (db *DB) sidxInsertBinaryLocked(id uint64, hist *histogram.Histogram) {
	if !db.sidxReady.Load() {
		return
	}
	// The item is freshly validated (dims come from the same quantizer), so
	// the only insert error is a dimension mismatch that cannot happen.
	_ = db.sidx.Insert(sidxBinaryItem(id, hist))
}

// sidxUpsertEditedLocked maintains the index across an edited insert or a
// sequence update (Update counts maintenance debt toward the lazy rebuild).
// Caller holds db.mu.
func (db *DB) sidxUpsertEditedLocked(id uint64) {
	if !db.sidxReady.Load() {
		return
	}
	_ = db.sidx.Update(db.sidxEditedItem(id))
}

// sidxDeleteLocked maintains the index across a delete. Caller holds db.mu.
func (db *DB) sidxDeleteLocked(id uint64) {
	if !db.sidxReady.Load() {
		return
	}
	db.sidx.Delete(id)
}

// ensureSearchIndex makes the S-tree queryable: the first call bulk-loads
// it from the catalog, later calls re-pack it once incremental maintenance
// debt passes the tree's threshold. A re-pack reuses the items the tree
// already holds — every write maintained them under db.mu, so they are
// exact — and walks no rules. Runs under db.mu, so writers are paused
// during a (re)build and the loaded item set is a consistent catalog
// snapshot. Indexed query paths call this before taking their tree
// snapshot.
func (db *DB) ensureSearchIndex(tr *obs.Trace) error {
	if db.sidxReady.Load() && !db.sidx.NeedsRebuild() {
		return nil
	}
	done := tr.Phase("indexed.build")
	defer done()
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return errors.New("core: database is closed")
	}
	if db.sidxReady.Load() {
		if db.sidx.NeedsRebuild() { // else another query re-packed it while we waited
			db.sidx.Rebuild()
			mIndexRebuilds.Inc()
		}
		return nil
	}
	nBin, nEd := db.cat.Len()
	items := make([]stree.Item, 0, nBin+nEd)
	for _, id := range db.cat.Binaries() {
		obj, err := db.cat.Binary(id)
		if errors.Is(err, catalog.ErrNotFound) {
			continue
		}
		if err != nil {
			return err
		}
		items = append(items, sidxBinaryItem(id, obj.Hist))
	}
	for _, id := range db.cat.EditedIDs() {
		items = append(items, db.sidxEditedItem(id))
	}
	if err := db.sidx.Bulk(items); err != nil {
		return err
	}
	db.sidxReady.Store(true)
	mIndexRebuilds.Inc()
	return nil
}

// SearchIndexStats reports the S-tree's state — whether it has been built,
// how many boxes it holds, and whether maintenance debt has passed the
// rebuild threshold — the inspection surface for tests and tooling.
func (db *DB) SearchIndexStats() (ready bool, items int, needsRebuild bool) {
	return db.sidxReady.Load(), db.sidx.Len(), db.sidx.NeedsRebuild()
}

// recordIndexVisit folds one traversal's work counters into the trace and
// the process registry.
func recordIndexVisit(tr *obs.Trace, st stree.VisitStats) {
	tr.Count(obs.TIndexNodesVisited, st.NodesVisited)
	tr.Count(obs.TIndexSubtreeAdmitted, st.SubtreeAdmitted)
	tr.Count(obs.TIndexLeafChecks, st.LeafChecks)
	mIndexNodesVisited.Add(st.NodesVisited)
	mIndexSubtreeAdmitted.Add(st.SubtreeAdmitted)
	mIndexLeafChecks.Add(st.LeafChecks)
}

// ctxEvery is how many leaf deliveries pass between cancellation checks on
// the serial tree descent (the scan modes poll at the same grain through
// the worker pool's chunking).
const ctxEvery = 256

// rangeSTree answers a single-bin range query from the S-tree. For this
// query shape the leaf geometry test is exact (see the package comment), so
// every delivered item is a match: binary point boxes reproduce
// MatchesExact, edited bounds boxes reproduce Bounds.Overlaps. Only items
// carrying the universal fallback box pay a rule walk.
func (db *DB) rangeSTree(ctx context.Context, q query.Range, tr *obs.Trace) (*rbm.Result, error) {
	if err := q.Validate(db.cfg.Quantizer.Bins()); err != nil {
		return nil, err
	}
	if err := db.ensureSearchIndex(tr); err != nil {
		return nil, err
	}
	res := &rbm.Result{}
	done := tr.Phase("indexed.stree-descend")
	snap := db.sidx.Snapshot()
	var vst stree.VisitStats
	classify := func(lo, hi []float64) stree.Overlap {
		if lo[q.Bin] > q.PctMax || hi[q.Bin] < q.PctMin {
			return stree.OverlapNone
		}
		if lo[q.Bin] >= q.PctMin && hi[q.Bin] <= q.PctMax {
			return stree.OverlapFull
		}
		return stree.OverlapPartial
	}
	seen := 0
	err := snap.Visit(classify, func(it *stree.Item, ov stree.Overlap) error {
		seen++
		if seen%ctxEvery == 0 {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
		}
		e := it.Data.(*sidxEntry)
		switch {
		case !e.edited:
			// Point box: any non-None verdict means the exact histogram
			// percentage is inside the query range.
			res.Stats.BinariesChecked++
			tr.Count(obs.TBaseMatches, 1)
		case e.minmax != nil:
			// Bounds box: a non-None verdict on the queried bin's slab is
			// exactly Bounds.Overlaps. Full admissions (node- or item-level)
			// skipped the rule walk outright.
			if ov == stree.OverlapFull {
				res.Stats.EditedSkipped++
			}
		default:
			// Universal fallback box: never decidable geometrically.
			obj, err := db.cat.Edited(it.ID)
			if errors.Is(err, catalog.ErrNotFound) {
				return nil
			}
			if err != nil {
				return err
			}
			b, err := db.editedBounds(obj, tr)
			if errors.Is(err, catalog.ErrNotFound) {
				return nil
			}
			if err != nil {
				return err
			}
			res.Stats.EditedWalked++
			if !b[q.Bin].Overlaps(q.PctMin, q.PctMax) {
				return nil
			}
		}
		res.IDs = append(res.IDs, it.ID)
		return nil
	}, &vst)
	done()
	if err != nil {
		return nil, err
	}
	recordIndexVisit(tr, vst)
	sort.Slice(res.IDs, func(i, j int) bool { return res.IDs[i] < res.IDs[j] })
	return res, nil
}

// multiSTree answers a multi-bin (summed) range query from the S-tree.
// Nodes are classified by the float sum of their union box over the query's
// bins with sidxSumEps of slack on the Full/None margins; partially
// overlapping leaves re-check exactly (integer-summed bounds for edited
// images, catalog histograms for binary).
func (db *DB) multiSTree(ctx context.Context, q query.MultiRange, tr *obs.Trace) (*rbm.Result, error) {
	if err := db.ensureSearchIndex(tr); err != nil {
		return nil, err
	}
	res := &rbm.Result{}
	done := tr.Phase("indexed.stree-descend")
	snap := db.sidx.Snapshot()
	var vst stree.VisitStats
	classify := func(lo, hi []float64) stree.Overlap {
		var sLo, sHi float64
		for _, b := range q.Bins {
			sLo += lo[b]
			sHi += hi[b]
		}
		if sLo > q.PctMax+sidxSumEps || sHi < q.PctMin-sidxSumEps {
			return stree.OverlapNone
		}
		if sHi <= q.PctMax-sidxSumEps && sLo >= q.PctMin+sidxSumEps {
			return stree.OverlapFull
		}
		return stree.OverlapPartial
	}
	seen := 0
	err := snap.Visit(classify, func(it *stree.Item, ov stree.Overlap) error {
		seen++
		if seen%ctxEvery == 0 {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
		}
		e := it.Data.(*sidxEntry)
		switch {
		case ov == stree.OverlapFull:
			// Geometrically proven in; no exact re-check needed.
			if e.edited {
				res.Stats.EditedSkipped++
			} else {
				res.Stats.BinariesChecked++
				tr.Count(obs.TBaseMatches, 1)
			}
		case !e.edited:
			obj, err := db.cat.Binary(it.ID)
			if errors.Is(err, catalog.ErrNotFound) {
				return nil
			}
			if err != nil {
				return err
			}
			res.Stats.BinariesChecked++
			if !q.MatchesExact(obj.Hist) {
				return nil
			}
			tr.Count(obs.TBaseMatches, 1)
		case e.minmax != nil:
			lo, hi := e.sumPct(q.Bins)
			if !(lo <= q.PctMax && hi >= q.PctMin) {
				return nil
			}
		default:
			obj, err := db.cat.Edited(it.ID)
			if errors.Is(err, catalog.ErrNotFound) {
				return nil
			}
			if err != nil {
				return err
			}
			b, err := db.editedBounds(obj, tr)
			if errors.Is(err, catalog.ErrNotFound) {
				return nil
			}
			if err != nil {
				return err
			}
			res.Stats.EditedWalked++
			lo, hi := sumBounds(b, q.Bins)
			if !(lo <= q.PctMax && hi >= q.PctMin) {
				return nil
			}
		}
		res.IDs = append(res.IDs, it.ID)
		return nil
	}, &vst)
	done()
	if err != nil {
		return nil, err
	}
	recordIndexVisit(tr, vst)
	sort.Slice(res.IDs, func(i, j int) bool { return res.IDs[i] < res.IDs[j] })
	return res, nil
}
