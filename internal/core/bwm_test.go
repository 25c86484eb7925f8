package core

// Fig. 2 is the BWM verdict of the scan evaluator. These tests hold it to
// RBM, pin both of its branches, and count the BWM components (Table 2) that
// the catalog's Widening flags define.

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/editops"
	"repro/internal/imaging"
	"repro/internal/query"
	"repro/internal/rbm"
)

func runRange(t *testing.T, db *DB, q query.Range, mode Mode) *rbm.Result {
	t.Helper()
	res, err := db.RangeQueryCtx(context.Background(), q, mode)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func redAtLeastHalf(db *DB) query.Range {
	return query.Range{Bin: db.Quantizer().Bin(dataset.Red), PctMin: 0.5, PctMax: 1}
}

// randomPixelDB fills a database with small random-pixel images and random
// edit sequences over them: every op kind, Merge into the null image and
// into other binaries, widening and non-widening alike.
func randomPixelDB(t *testing.T, seed int64, nBinary, nEdited int) *DB {
	t.Helper()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	db := memDB(t)
	palette := []imaging.RGB{dataset.Red, dataset.Green, dataset.Blue, {R: 255, G: 255, B: 255}, {}}
	var binIDs []uint64
	dims := map[uint64][2]int{}
	for i := 0; i < nBinary; i++ {
		w, h := 4+rng.Intn(8), 4+rng.Intn(8)
		img := imaging.New(w, h)
		for j := range img.Pix {
			img.Pix[j] = palette[rng.Intn(len(palette))]
		}
		id, err := db.InsertImageCtx(ctx, 0, "bin", img)
		if err != nil {
			t.Fatal(err)
		}
		binIDs = append(binIDs, id)
		dims[id] = [2]int{w, h}
	}
	for i := 0; i < nEdited; i++ {
		baseID := binIDs[rng.Intn(len(binIDs))]
		d := dims[baseID]
		var ops []editops.Op
		n := 1 + rng.Intn(5)
		for len(ops) < n {
			switch rng.Intn(5) {
			case 0:
				x0, y0 := rng.Intn(d[0]), rng.Intn(d[1])
				ops = append(ops, editops.Define{Region: imaging.R(x0, y0, x0+1+rng.Intn(d[0]), y0+1+rng.Intn(d[1]))})
			case 1:
				ops = append(ops, editops.Modify{Old: palette[rng.Intn(len(palette))], New: palette[rng.Intn(len(palette))]})
			case 2:
				ops = append(ops, editops.Combine{Weights: [9]float64{1, 1, 1, 1, 1, 1, 1, 1, 1}})
			case 3:
				ops = append(ops, editops.Mutate{M: [9]float64{1, 0, float64(rng.Intn(5) - 2), 0, 1, float64(rng.Intn(5) - 2), 0, 0, 1}})
			case 4:
				if rng.Intn(2) == 0 {
					ops = append(ops, editops.Merge{Target: editops.NullTarget})
				} else {
					ops = append(ops, editops.Merge{Target: binIDs[rng.Intn(len(binIDs))], XP: rng.Intn(6), YP: rng.Intn(6)})
				}
			}
		}
		if _, err := db.InsertEditedCtx(ctx, 0, "ed", &editops.Sequence{BaseID: baseID, Ops: ops}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestBWMEqualsRBM is the correctness claim of the paper's §4: BWM produces
// the same query results as RBM while avoiding rule applications. Random
// databases, random queries.
func TestBWMEqualsRBM(t *testing.T) {
	skipped, answered := 0, 0
	for seed := int64(0); seed < 8; seed++ {
		db := randomPixelDB(t, seed, 6, 40)
		rng := rand.New(rand.NewSource(seed + 100))
		for trial := 0; trial < 60; trial++ {
			lo := rng.Float64()
			hi := lo + (1-lo)*rng.Float64()
			q := query.Range{Bin: rng.Intn(db.Quantizer().Bins()), PctMin: lo, PctMax: hi}
			r, b := runRange(t, db, q, ModeRBM), runRange(t, db, q, ModeBWM)
			if !slices.Equal(r.IDs, b.IDs) {
				t.Fatalf("seed %d trial %d: RBM %v != BWM %v", seed, trial, r.IDs, b.IDs)
			}
			// BWM must never apply MORE rules than RBM.
			if b.Stats.OpsEvaluated > r.Stats.OpsEvaluated {
				t.Fatalf("seed %d trial %d: BWM evaluated %d ops, RBM %d",
					seed, trial, b.Stats.OpsEvaluated, r.Stats.OpsEvaluated)
			}
			skipped += b.Stats.EditedSkipped
			answered += len(b.IDs)
		}
	}
	// The corpus must exercise Fig. 2's skip and return something.
	if skipped == 0 || answered == 0 {
		t.Fatalf("vacuous corpus: %d skipped, %d returned", skipped, answered)
	}
}

// TestBWMSkipsRulesWhenBaseMatches pins the mechanism: with a base that
// satisfies the query, its cluster's members are admitted with zero rule
// evaluations (Fig. 2 step 4.2).
func TestBWMSkipsRulesWhenBaseMatches(t *testing.T) {
	ctx := context.Background()
	db := memDB(t)
	baseID, err := db.InsertImageCtx(ctx, 0, "b", imaging.NewFilled(10, 10, dataset.Red))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		seq := &editops.Sequence{BaseID: baseID, Ops: []editops.Op{
			editops.Modify{Old: dataset.Blue, New: dataset.Green},
		}}
		if _, err := db.InsertEditedCtx(ctx, 0, "e", seq); err != nil {
			t.Fatal(err)
		}
	}
	res := runRange(t, db, redAtLeastHalf(db), ModeBWM)
	if len(res.IDs) != 6 {
		t.Fatalf("returned %d ids", len(res.IDs))
	}
	if res.Stats.OpsEvaluated != 0 || res.Stats.EditedSkipped != 5 {
		t.Fatalf("stats %+v", res.Stats)
	}
}

// TestBWMWalksRulesWhenBaseFails pins the other branch: the base misses the
// query, so each cluster member takes the rule walk (Fig. 2 step 4.3).
func TestBWMWalksRulesWhenBaseFails(t *testing.T) {
	ctx := context.Background()
	db := memDB(t)
	baseID, err := db.InsertImageCtx(ctx, 0, "b", imaging.NewFilled(10, 10, dataset.Blue))
	if err != nil {
		t.Fatal(err)
	}
	id, err := db.InsertEditedCtx(ctx, 0, "e", &editops.Sequence{BaseID: baseID, Ops: []editops.Op{
		editops.Modify{Old: dataset.Blue, New: dataset.Red},
	}})
	if err != nil {
		t.Fatal(err)
	}
	res := runRange(t, db, redAtLeastHalf(db), ModeBWM)
	// The edited image may be fully red → returned; the base is not.
	if !slices.Equal(res.IDs, []uint64{id}) {
		t.Fatalf("ids %v", res.IDs)
	}
	if res.Stats.EditedWalked != 1 || res.Stats.OpsEvaluated != 1 {
		t.Fatalf("stats %+v", res.Stats)
	}
}

func TestBWMValidatesQuery(t *testing.T) {
	db := memDB(t)
	if _, err := db.RangeQueryCtx(context.Background(), query.Range{Bin: -1}, ModeBWM); err == nil {
		t.Fatal("invalid query accepted")
	}
}

// componentDB holds the fixture of the Table 2 component tests: a database
// with three binary bases (red, green, blue), an insert of an edited image,
// and a check of the BWM component sizes the catalog reports.
type componentDB struct {
	t     *testing.T
	db    *DB
	bases []uint64
}

// componentWidening is a widening edit sequence: a Modify keeps the image in
// its base's cluster. A Merge into another binary (nonWidening) does not.
var componentWidening = []editops.Op{editops.Modify{Old: dataset.Red, New: dataset.Blue}}

func newComponentDB(t *testing.T) *componentDB {
	t.Helper()
	c := &componentDB{t: t, db: memDB(t)}
	for _, col := range []imaging.RGB{dataset.Red, dataset.Green, dataset.Blue} {
		id, err := c.db.InsertImageCtx(context.Background(), 0, "b", imaging.NewFilled(6, 6, col))
		if err != nil {
			t.Fatal(err)
		}
		c.bases = append(c.bases, id)
	}
	return c
}

func (c *componentDB) nonWidening() []editops.Op {
	return []editops.Op{editops.Merge{Target: c.bases[2]}}
}

func (c *componentDB) insert(base uint64, ops []editops.Op) uint64 {
	c.t.Helper()
	id, err := c.db.InsertEditedCtx(context.Background(), 0, "e", &editops.Sequence{BaseID: base, Ops: ops})
	if err != nil {
		c.t.Fatal(err)
	}
	return id
}

func (c *componentDB) check(step string, clusters, clustered, unclassified int) {
	c.t.Helper()
	st, err := c.db.Stats()
	if err != nil {
		c.t.Fatal(err)
	}
	if st.BWMClusters != clusters || st.BWMClustered != clustered || st.BWMUnclassified != unclassified {
		c.t.Fatalf("%s: clusters/clustered/unclassified = %d/%d/%d, want %d/%d/%d", step,
			st.BWMClusters, st.BWMClustered, st.BWMUnclassified, clusters, clustered, unclassified)
	}
}

// TestBWMInsertEditedRouting routes edited images between the BWM
// components (Table 2): a widening sequence joins its base's cluster, a
// non-widening one is unclassified, and an append that makes a widening
// image non-widening moves it out of the cluster.
func TestBWMInsertEditedRouting(t *testing.T) {
	c := newComponentDB(t)
	c.check("bases only", 3, 0, 0)
	c.insert(c.bases[0], componentWidening)
	e2 := c.insert(c.bases[0], componentWidening)
	c.insert(c.bases[1], componentWidening)
	c.insert(c.bases[0], c.nonWidening())
	c.check("inserts", 3, 3, 1)

	if err := c.db.AppendOpsCtx(context.Background(), e2, c.nonWidening()); err != nil {
		t.Fatal(err)
	}
	c.check("append non-widening", 3, 2, 2)
}

// TestBWMDeleteEdited deletes a clustered and an unclassified edited image;
// each leaves its component.
func TestBWMDeleteEdited(t *testing.T) {
	c := newComponentDB(t)
	e1 := c.insert(c.bases[0], componentWidening)
	e2 := c.insert(c.bases[0], c.nonWidening())
	c.check("inserts", 3, 1, 1)
	if err := c.db.DeleteCtx(context.Background(), e1); err != nil {
		t.Fatal(err)
	}
	c.check("delete member", 3, 0, 1)
	if err := c.db.DeleteCtx(context.Background(), e2); err != nil {
		t.Fatal(err)
	}
	c.check("delete unclassified", 3, 0, 0)
}

// TestBWMDeleteBinary deletes a base whose cluster was emptied: the cluster
// goes, and edited images inserted afterwards still route to the clusters
// that remain.
func TestBWMDeleteBinary(t *testing.T) {
	ctx := context.Background()
	c := newComponentDB(t)
	e := c.insert(c.bases[1], componentWidening)
	if err := c.db.DeleteCtx(ctx, e); err != nil {
		t.Fatal(err)
	}
	if err := c.db.DeleteCtx(ctx, c.bases[1]); err != nil {
		t.Fatal(err)
	}
	c.check("delete emptied base", 2, 0, 0)
	c.insert(c.bases[0], componentWidening)
	c.check("insert after delete", 2, 1, 0)
}
