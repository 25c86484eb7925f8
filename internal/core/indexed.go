package core

import (
	"context"
	"errors"
	"math"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/catalog"
	"repro/internal/histogram"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/rbm"
	"repro/internal/rules"
	"repro/internal/stree"
)

// ModeIndexed — the bounds S-tree strategy. Every other mode evaluates all
// n candidates (one at a time, O(n)); this one descends a bulk-loaded
// tree whose inner nodes hold the union [min,max] percentage box of their
// subtree, so a range query visits only intersecting nodes and a node box
// fully inside the query admits its whole subtree without per-candidate
// rule walks. The tree holds no query logic of its own: a range, compound
// or multi-bin query takes one descent whose node and leaf tests are its
// terms' own (pagedTerm.box and pagedTerm.leaf, combined in descend), and
// the tree hands each reached leaf over whole, so a term decides all of a
// leaf's undecided items in one call from the leaf's columns.
// Similarity search (knn.go) runs best-first over the same tree in every
// mode.
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
//   - Multi-bin (summed) classifications use float sums, added column-wise
//     in the query's bin order, with an epsilon of slack on the Full/None
//     margins. A binary item's sum over its point box is
//     query.MultiRange.SumPct bit for bit, so it is decided exactly from
//     the leaf, with no catalog lookup; an edited item whose float sums
//     clear the query's ends by the epsilon overlaps it, and only one
//     within the epsilon re-checks exactly on its integer-summed bounds
//     (multiTerm), so float drift can cost a node descent or a re-check,
//     never a wrong answer.
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
// between taking its id-list snapshot and testing an id) — a binary image
// by a single-bin and a multi-bin query alike, since neither reads the
// catalog to decide one.
var (
	mIndexNodesVisited    = obs.Default().Counter("esidb_index_nodes_visited_total")
	mIndexSubtreeAdmitted = obs.Default().Counter("esidb_index_subtree_admitted_total")
	mIndexLeafChecks      = obs.Default().Counter("esidb_index_leaf_checks_total")
	mIndexRebuilds        = obs.Default().Counter("esidb_index_rebuilds_total")
)

// sidxFanout is the S-tree node capacity (children per inner node, items per
// leaf). A leaf's items are named by one uint64 mask (liveMask), so it is
// at most 64; the conversion below fails to compile past that.
const sidxFanout = 16

const _ = uint64(64 - sidxFanout)

// sidxSumEps is the slack on multi-bin Full/None margins. Summing ≤ bins
// float terms keeps the error under ~1e-13; 1e-9 is comfortably past it
// while far below any meaningful percentage difference.
const sidxSumEps = 1e-9

// The kinds of S-tree item, the tree's kind column: every leaf decision
// that needs only an item's kind reads it there, with no payload
// dereference.
const (
	// sidxBinary is a binary image: the point box of its normalized
	// histogram, no payload.
	sidxBinary uint8 = iota
	// sidxEdited is an edited image with its bounds box; the payload is its
	// *sidxEntry.
	sidxEdited
	// sidxUniversal is an edited image whose bounds could not be computed
	// or packed at insert time: the never-prunable [0,1] box, no payload,
	// decided exactly at the leaf.
	sidxUniversal
)

// sidxEntry is the payload of an sidxEdited item: the exact integers behind
// its float box, read by a multi-bin leaf test only inside the epsilon
// band (multiTerm) — the image's pixel total
// (the rules track one total, the same in every bin) and bin b's count
// bounds at minmax[2b], minmax[2b+1].
type sidxEntry struct {
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

// sidxAdmit counts an item of the given kind its term proved in from the
// leaf's columns: a binary image's exact test, or an edited image admitted
// without a rule walk when its box (or an ancestor's) was Full.
func sidxAdmit(kind uint8, full bool, st *rbm.Stats) {
	if kind == sidxBinary {
		st.BinariesChecked++
		st.BaseMatches++
	} else if full {
		st.EditedSkipped++
	}
}

// sidxBox cuts one item's lo and hi vectors out of box, 2·bins values of
// storage the caller lends until the tree has copied the item in, or
// allocates them when box is nil. A bulk load lends one block for all its
// items, so the boxes it drops after the copy leave no half-used spans
// among the payloads that stay.
func sidxBox(box []float64, bins int) (lo, hi []float64) {
	if box == nil {
		box = make([]float64, 2*bins)
	}
	return box[:bins:bins], box[bins : 2*bins : 2*bins]
}

// sidxBinaryItem builds the S-tree item for a binary image, in box's
// storage (sidxBox): a point box at its normalized histogram.
func sidxBinaryItem(id uint64, hist *histogram.Histogram, box []float64) stree.Item {
	p, _ := sidxBox(box, hist.Bins())
	hist.NormalizedInto(p)
	return stree.Item{ID: id, Kind: sidxBinary, Lo: p, Hi: p}
}

// editedBounds computes an edited image's full per-bin bounds vector over
// its base with one rule walk over its sequence, counted into st: paid at
// S-tree item construction, on the universal-box leaf fallback and by the
// multi-bin scan verdict.
func (db *DB) editedBounds(obj, base *catalog.Object, st *rbm.Stats) ([]rules.Bounds, error) {
	st.Walked(obj.Seq.Ops)
	return db.engine.BoundsAll(base.Hist, base.W, base.H, obj.Seq.Ops)
}

// editedBoundsByID is editedBounds for an S-tree item, which holds an id
// rather than catalog entries. An image, base or Merge target deleted since
// the snapshot yields no bounds and no error.
func (db *DB) editedBoundsByID(id uint64, st *rbm.Stats) ([]rules.Bounds, error) {
	obj, err := db.cat.Edited(id)
	var base *catalog.Object
	if err == nil {
		base, err = db.cat.Binary(obj.Seq.BaseID)
	}
	var b []rules.Bounds
	if err == nil {
		b, err = db.editedBounds(obj, base, st)
	}
	if errors.Is(err, catalog.ErrNotFound) {
		return nil, nil
	}
	return b, err
}

// sidxEditedItem builds the S-tree item for an edited image: its per-bin
// bounds box, its rule walk counted into st. If the bounds cannot be
// computed, or do not pack (totals that differ between bins, a count past
// int32), the item gets the universal box, so index maintenance can't lose
// a candidate. The box is built in box's storage (sidxBox).
func (db *DB) sidxEditedItem(id uint64, st *rbm.Stats, box []float64) stree.Item {
	bins := db.cfg.Quantizer.Bins()
	bounds, err := db.editedBoundsByID(id, st)
	if err != nil || len(bounds) != bins {
		return sidxUniversalItem(id, bins, box)
	}
	for _, b := range bounds {
		if b.Total != bounds[0].Total || b.Min < math.MinInt32 || b.Max > math.MaxInt32 {
			return sidxUniversalItem(id, bins, box)
		}
	}
	e := &sidxEntry{total: bounds[0].Total, minmax: make([]int32, 2*bins)}
	lo, hi := sidxBox(box, bins)
	for i, b := range bounds {
		e.minmax[2*i], e.minmax[2*i+1] = int32(b.Min), int32(b.Max)
		lo[i], hi[i] = b.PctRange()
	}
	return stree.Item{ID: id, Kind: sidxEdited, Lo: lo, Hi: hi, Data: e}
}

// sidxUniversalItem is the item of an edited image with no bounds vector:
// the [0,1] box on every bin — never pruned, never admitted geometrically,
// always decided exactly at the leaf. The box is built in box's storage
// (sidxBox).
func sidxUniversalItem(id uint64, bins int, box []float64) stree.Item {
	lo, hi := sidxBox(box, bins)
	for i := range hi {
		lo[i], hi[i] = 0, 1
	}
	return stree.Item{ID: id, Kind: sidxUniversal, Lo: lo, Hi: hi}
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
	_ = db.sidx.Insert(sidxBinaryItem(id, hist, nil))
}

// sidxUpsertEditedLocked maintains the index across an edited insert or a
// sequence update (Update counts maintenance debt toward the lazy rebuild),
// and records its rule walk. Caller holds db.mu.
func (db *DB) sidxUpsertEditedLocked(id uint64) {
	if !db.sidxReady.Load() {
		return
	}
	var st rbm.Stats
	_ = db.sidx.Update(db.sidxEditedItem(id, &st, nil))
	st.Record(nil)
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
	// One block lends every item its box until Bulk copies them in.
	bins := db.cfg.Quantizer.Bins()
	boxes := make([]float64, 2*bins*(nBin+nEd))
	box := func() []float64 {
		i := len(items)
		return boxes[2*bins*i : 2*bins*(i+1)]
	}
	for _, id := range db.cat.Binaries() {
		obj, err := db.cat.Binary(id)
		if errors.Is(err, catalog.ErrNotFound) {
			continue
		}
		if err != nil {
			return err
		}
		items = append(items, sidxBinaryItem(id, obj.Hist, box()))
	}
	var st rbm.Stats
	for _, id := range db.cat.EditedIDs() {
		items = append(items, db.sidxEditedItem(id, &st, box()))
	}
	st.Record(nil)
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

// ctxEvery is how many leaves pass between cancellation checks on the tree
// descent.
const ctxEvery = 16

// descend answers a range, compound or multi-bin query from the S-tree in
// one descent for all its terms. The boxes of one node — its children's
// union boxes, or a leaf's items — are classified together by every term's
// box test, combined as the connective combines verdicts: under And a box
// is None if any term is None and Full only if every term is, under Or the
// dual — the minimum and the maximum of None < Partial < Full. A leaf is
// decided whole: a one-term query hands the descent's verdicts straight to
// its term's leaf test; a compound query runs its terms' leaf tests in
// order over the items still undecided, with judge's short-circuit, each
// term on its own verdicts — kept from classify, or classified for the
// whole leaf when classify stopped before the term or an ancestor was
// Full. The ids are collected in tree order, leaf by leaf, into pooled
// scratch, put in id order once after the descent (sortIDs: a radix sort,
// or slices.Sort on a short answer) and copied out at the answer's length.
func (db *DB) descend(ctx context.Context, terms []pagedTerm, conn query.Connective, tr *obs.Trace) (*rbm.Result, error) {
	if err := db.ensureSearchIndex(tr); err != nil {
		return nil, err
	}
	res := &rbm.Result{}
	found := idScratch.Get().(*[]uint64)
	defer idScratch.Put(found)
	*found = (*found)[:0]
	d := &leafDecider{terms: terms, and: conn == query.And, ids: found}
	if len(terms) > 1 {
		d.tv = make([][]stree.Overlap, len(terms))
	}
	leaves := 0
	onLeaf := func(l *stree.Leaf, ov []stree.Overlap) error {
		if leaves++; leaves%ctxEvery == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		return d.leaf(l, ov, &res.Stats)
	}
	done := tr.Phase("indexed.stree-descend")
	var vst stree.VisitStats
	err := db.sidx.Snapshot().Visit(d.classify, onLeaf, &vst)
	done()
	ids := *found
	if err != nil {
		return nil, err
	}
	recordIndexVisit(tr, vst)
	sorted := idScratch.Get().(*[]uint64)
	defer idScratch.Put(sorted)
	*sorted = slices.Grow((*sorted)[:0], len(ids))
	ids = sortIDs(ids, *sorted)
	if len(ids) > 0 {
		res.IDs = slices.Clone(ids)
	}
	return res, nil
}

// leafDecider is one descent's verdicts and answer: descend's classify and
// leaf decision, over the query's terms.
type leafDecider struct {
	terms []pagedTerm
	and   bool
	ids   *[]uint64 // the pooled buffer admitted ids are collected in
	// tv[t] holds term t's verdicts on the boxes classify was last given,
	// for every term below have; a compound query's leaf reuses them.
	tv   [][]stree.Overlap
	have int
}

// classify is the descent's box test: the terms' verdicts combined, the
// later terms skipped once no box's verdict can change.
func (d *leafDecider) classify(b stree.Boxes, out []stree.Overlap) {
	d.terms[0].box(b, out)
	if d.tv == nil {
		return
	}
	decided := stree.OverlapFull // a verdict no further term can change
	if d.and {
		decided = stree.OverlapNone
	}
	d.tv[0] = append(d.tv[0][:0], out...)
	d.have = 1
	for t := 1; t < len(d.terms); t++ {
		if !slices.ContainsFunc(out, func(ov stree.Overlap) bool { return ov != decided }) {
			break
		}
		more := d.verdicts(t, b, len(out))
		for i, ov := range more {
			if d.and {
				out[i] = min(out[i], ov)
			} else {
				out[i] = max(out[i], ov)
			}
		}
	}
}

// verdicts classifies b's n boxes by term t into tv[t], which the terms
// below t already hold for b.
func (d *leafDecider) verdicts(t int, b stree.Boxes, n int) []stree.Overlap {
	d.tv[t] = slices.Grow(d.tv[t][:0], n)[:n]
	d.terms[t].box(b, d.tv[t])
	d.have = t + 1
	return d.tv[t]
}

// leaf decides one leaf given the descent's verdicts on its items (nil:
// an ancestor was Full), counting its work into st, and collects the ids
// it admits.
func (d *leafDecider) leaf(l *stree.Leaf, ov []stree.Overlap, st *rbm.Stats) error {
	n := l.Len()
	in := liveMask(ov, n)
	if d.tv == nil {
		got, err := d.terms[0].leaf(l, ov, in, st)
		if err != nil {
			return err
		}
		d.collect(l, got)
		return nil
	}
	if ov == nil {
		d.have = 0 // the leaf was not classified
	}
	var ans uint64
	for t := range d.terms {
		if in == 0 {
			break
		}
		var tov []stree.Overlap
		switch {
		case ov == nil && d.and:
			// Under And a Full box is Full for every term: tov stays nil.
		case t < d.have:
			tov = d.tv[t]
		default:
			tov = d.verdicts(t, l.Boxes(), n)
		}
		got, err := d.terms[t].leaf(l, tov, in&liveMask(tov, n), st)
		if err != nil {
			return err
		}
		if d.and {
			in = got
		} else {
			ans |= got
			in &^= got
		}
	}
	if d.and {
		ans = in
	}
	d.collect(l, ans)
	return nil
}

// collect appends the ids of the leaf's items that m names; a leaf
// admitted whole appends its id column.
func (d *leafDecider) collect(l *stree.Leaf, m uint64) {
	if m == liveMask(nil, l.Len()) {
		*d.ids = append(*d.ids, l.IDs()...)
		return
	}
	for ; m != 0; m &= m - 1 {
		*d.ids = append(*d.ids, l.ID(bits.TrailingZeros64(m)))
	}
}

// liveMask names the first n items whose verdict is not None: all of them
// when ov is nil. n is at most 64 (sidxFanout).
func liveMask(ov []stree.Overlap, n int) uint64 {
	if ov == nil {
		return 1<<n - 1
	}
	var m uint64
	for i, v := range ov[:n] {
		if v != stree.OverlapNone {
			m |= 1 << i
		}
	}
	return m
}

// idScratch lends descend its two id buffers, the ids it collects in tree
// order and the radix sort's second buffer, so a query allocates its answer
// once, at its final length, however many ids the descent finds.
var idScratch = sync.Pool{New: func() any { return new([]uint64) }}
