// Package bwm implements the paper's contribution, the Bound-Widening
// Method (§4): a two-component data structure plus a query algorithm that
// produces exactly the RBM result set while skipping rule evaluation for
// most edited images.
//
// The Main Component clusters widening-only edited images under their base
// image; the Unclassified Component lists edited images containing at least
// one non-bound-widening operation. During a range query, if a cluster's
// base image satisfies the query, every edited image in the cluster is
// admitted without touching its operations — the bound-widening property
// guarantees its range would have intersected the query range anyway.
package bwm

import (
	"context"
	"errors"
	"sort"
	"sync"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/rbm"
	"repro/internal/rules"
)

// Process-wide counters for the paper's headline effect: how often the
// Main-Component fast path fires and how much rule evaluation it saves.
var (
	mClusterHits      = obs.Default().Counter("esidb_bwm_cluster_base_hits_total")
	mFastPathAdmitted = obs.Default().Counter("esidb_bwm_fastpath_admitted_total")
	mUnclassified     = obs.Default().Counter("esidb_bwm_unclassified_walked_total")
)

// Index is the proposed data structure (paper §4.1). It is maintained
// incrementally as images are inserted (paper Fig. 1) and is safe for
// concurrent readers with a single writer.
type Index struct {
	mu sync.RWMutex
	// main holds one cluster per binary image, ordered by base id (the
	// paper keeps the list sorted to ease locating a specific base).
	main []cluster // guarded by mu
	// pos locates a base id's cluster within main.
	pos map[uint64]int // guarded by mu
	// unclassified lists edited images that contain a non-widening op.
	unclassified []uint64 // guarded by mu
}

type cluster struct {
	baseID uint64
	edited []uint64
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{pos: make(map[uint64]int)}
}

// InsertBinary registers a newly inserted binary image: it gains an empty
// cluster in the Main Component.
func (x *Index) InsertBinary(id uint64) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if _, ok := x.pos[id]; ok {
		return
	}
	// Insertion keeping main sorted by base id.
	//lint:ignore lockguard sort.Search invokes the closure synchronously under the Lock above; it never escapes this call.
	i := sort.Search(len(x.main), func(i int) bool { return x.main[i].baseID >= id })
	x.main = append(x.main, cluster{})
	copy(x.main[i+1:], x.main[i:])
	x.main[i] = cluster{baseID: id}
	for j := i; j < len(x.main); j++ {
		x.pos[x.main[j].baseID] = j
	}
}

// InsertEdited implements the paper's Fig. 1 insertion: a widening-only
// edited image joins its base's cluster in the Main Component, any other
// edited image joins the Unclassified Component. The widening flag is the
// geometry-aware classification (rules.SequenceIsWideningFor) computed when
// the image was inserted into the database.
func (x *Index) InsertEdited(id, baseID uint64, widening bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if !widening {
		x.unclassified = append(x.unclassified, id)
		return
	}
	i, ok := x.pos[baseID]
	if !ok {
		// A widening edited image whose base is unknown cannot be clustered;
		// keep correctness by treating it as unclassified.
		x.unclassified = append(x.unclassified, id)
		return
	}
	x.main[i].edited = append(x.main[i].edited, id)
}

// DeleteEdited removes an edited image from whichever component holds it.
// It is a no-op if the id is not present. Removal is copy-on-write: query
// snapshots taken before the delete keep reading their own intact slices.
func (x *Index) DeleteEdited(id, baseID uint64) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if i, ok := x.pos[baseID]; ok {
		if nw, removed := removeCopy(x.main[i].edited, id); removed {
			x.main[i].edited = nw
			return
		}
	}
	if nw, removed := removeCopy(x.unclassified, id); removed {
		x.unclassified = nw
	}
}

// removeCopy returns a fresh slice without the first occurrence of id.
func removeCopy(ids []uint64, id uint64) ([]uint64, bool) {
	for j, e := range ids {
		if e == id {
			nw := make([]uint64, 0, len(ids)-1)
			nw = append(nw, ids[:j]...)
			nw = append(nw, ids[j+1:]...)
			return nw, true
		}
	}
	return ids, false
}

// DeleteBinary removes a binary image's cluster. The caller must have
// removed or re-homed its edited members first; a non-empty cluster is an
// invariant violation and panics.
func (x *Index) DeleteBinary(id uint64) {
	x.mu.Lock()
	defer x.mu.Unlock()
	i, ok := x.pos[id]
	if !ok {
		return
	}
	if len(x.main[i].edited) > 0 {
		panic("bwm: deleting a cluster with edited members")
	}
	x.main = append(x.main[:i], x.main[i+1:]...)
	delete(x.pos, id)
	for j := i; j < len(x.main); j++ {
		x.pos[x.main[j].baseID] = j
	}
}

// Sizes returns (clusters, clustered edited images, unclassified edited
// images), the occupancy numbers behind the paper's Table 2.
func (x *Index) Sizes() (clusters, clustered, unclassified int) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	for _, c := range x.main {
		clustered += len(c.edited)
	}
	return len(x.main), clustered, len(x.unclassified)
}

// snapshot copies the index state for a query. Cluster structs are copied
// and member slices are shared read-only: inserts append (never touching a
// snapshot's visible prefix) and deletes are copy-on-write, so a snapshot
// stays internally consistent for the duration of its query.
func (x *Index) snapshot() ([]cluster, []uint64) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	main := make([]cluster, len(x.main))
	copy(main, x.main)
	return main, x.unclassified
}

// Processor executes BWM range queries (paper Fig. 2). It reuses the RBM
// processor for the rule-walk fallback so that both methods share one
// BOUNDS implementation — any divergence would be a bug, and the
// equivalence tests pin them together.
type Processor struct {
	Cat    *catalog.Catalog
	Engine *rules.Engine
	Idx    *Index
	// Parallel, when non-nil, supplies the candidate-evaluation
	// parallelism knob (0 = auto, 1 = serial); nil keeps the walk serial.
	// BWM fans out at cluster granularity in the Main Component and at
	// member granularity in the Unclassified Component.
	Parallel func() int
	rbm      *rbm.Processor
}

// workers resolves the processor's parallelism for one query.
func (p *Processor) workers() int {
	if p.Parallel == nil {
		return 1
	}
	return exec.Resolve(p.Parallel())
}

// New returns a BWM processor over the catalog, engine and index.
func New(cat *catalog.Catalog, engine *rules.Engine, idx *Index) *Processor {
	return &Processor{Cat: cat, Engine: engine, Idx: idx, rbm: rbm.New(cat, engine)}
}

// Range answers a color range query with the Fig. 2 algorithm.
func (p *Processor) Range(q query.Range) (*rbm.Result, error) {
	return p.RangeTraced(q, nil)
}

// RangeTraced is Range with per-phase timings and decision counts recorded
// into tr (nil disables tracing at no cost).
func (p *Processor) RangeTraced(q query.Range, tr *obs.Trace) (*rbm.Result, error) {
	return p.RangeTracedCtx(context.Background(), q, tr)
}

// RangeTracedCtx is RangeTraced with the caller's ctx propagated into the
// candidate-evaluation worker pool, so cancelling the query stops both the
// cluster walk and the unclassified walk.
func (p *Processor) RangeTracedCtx(ctx context.Context, q query.Range, tr *obs.Trace) (*rbm.Result, error) {
	if err := q.Validate(p.Engine.Quant.Bins()); err != nil {
		return nil, err
	}
	res := &rbm.Result{}
	main, unclassified := p.Idx.snapshot()
	workers := p.workers()

	// Step 4: walk the Main Component clusters. Clusters are independent,
	// so they shard across the worker pool; each cluster's admitted ids
	// land in an index-ordered slot and per-worker statistics merge
	// afterwards, keeping the output identical to the serial walk.
	done := tr.Phase("bwm.main-component")
	slots := make([][]uint64, len(main))
	stats := make([]rbm.Stats, workers)
	pst, err := exec.ForEach(ctx, workers, len(main), func(w, i int) error {
		ids, cerr := p.walkCluster(main[i], q, &stats[w], tr)
		if cerr != nil {
			return cerr
		}
		slots[i] = ids
		return nil
	})
	if pst.Workers > 1 {
		pst.Record(tr)
	}
	if err != nil {
		return nil, err
	}
	for _, ids := range slots {
		res.IDs = append(res.IDs, ids...)
	}
	for i := range stats {
		res.Stats.Add(stats[i])
		stats[i] = rbm.Stats{}
	}
	done()

	// Step 5: the Unclassified Component always takes the rule walk.
	done = tr.Phase("bwm.unclassified")
	mUnclassified.Add(int64(len(unclassified)))
	tr.Count(obs.TUnclassifiedWalked, int64(len(unclassified)))
	matched, pst, err := exec.FilterIDs(ctx, workers, unclassified, func(w int, id uint64) (bool, error) {
		return p.rbm.CheckEdited(id, q, &stats[w], tr)
	})
	if pst.Workers > 1 {
		pst.Record(tr)
	}
	if err != nil {
		return nil, err
	}
	res.IDs = append(res.IDs, matched...)
	for i := range stats {
		res.Stats.Add(stats[i])
	}
	done()
	sort.Slice(res.IDs, func(i, j int) bool { return res.IDs[i] < res.IDs[j] })
	return res, nil
}

// walkCluster evaluates one Main-Component cluster (Fig. 2 steps 4.1–4.3)
// and returns the admitted ids: the base plus the rule-free members when
// the base satisfies the query, otherwise the members that pass the rule
// walk. st must be private to the calling worker.
func (p *Processor) walkCluster(cl cluster, q query.Range, st *rbm.Stats, tr *obs.Trace) ([]uint64, error) {
	base, err := p.Cat.Binary(cl.baseID)
	if errors.Is(err, catalog.ErrNotFound) {
		return nil, nil // base deleted since the snapshot (its cluster was empty)
	}
	if err != nil {
		return nil, err
	}
	st.BinariesChecked++
	if q.MatchesExact(base.Hist) {
		// 4.2: the base satisfies the query; every widening-only edited
		// image in the cluster satisfies it too, rule-free.
		ids := make([]uint64, 0, len(cl.edited)+1)
		ids = append(ids, cl.baseID)
		ids = append(ids, cl.edited...)
		st.EditedSkipped += len(cl.edited)
		mClusterHits.Inc()
		mFastPathAdmitted.Add(int64(len(cl.edited)))
		tr.Count(obs.TBaseMatches, 1)
		tr.Count(obs.TClusterHits, 1)
		tr.Count(obs.TFastPathAdmitted, int64(len(cl.edited)))
		return ids, nil
	}
	// 4.3: base failed; fall back to the rule walk per member.
	var ids []uint64
	for _, id := range cl.edited {
		ok, err := p.rbm.CheckEdited(id, q, st, tr)
		if err != nil {
			return nil, err
		}
		if ok {
			ids = append(ids, id)
		}
	}
	return ids, nil
}
