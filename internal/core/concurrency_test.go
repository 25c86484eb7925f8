package core

import (
	"context"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/editops"
	"repro/internal/histogram"
	"repro/internal/query"
)

// TestConcurrentQueriesDuringInserts exercises the documented concurrency
// contract: queries may run from many goroutines while one writer inserts.
// Run with -race to verify.
func TestConcurrentQueriesDuringInserts(t *testing.T) {
	ctx := context.Background()
	db := memDB(t)
	populate(t, db, 4, 2, 0.2, 101)
	queries, err := dataset.RangeWorkload(dataset.WorkloadConfig{Queries: 25, Seed: 6}, db.Quantizer())
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// One writer: keeps inserting bases and edits.
	wg.Add(1)
	go func() {
		defer wg.Done()
		flags := dataset.Flags(30, 16, 12, 9)
		for i, f := range flags {
			select {
			case <-stop:
				return
			default:
			}
			id, err := db.InsertImageCtx(ctx, 0, f.Name, f.Img)
			if err != nil {
				t.Error(err)
				return
			}
			seq := &editops.Sequence{BaseID: id, Ops: []editops.Op{
				editops.Modify{Old: dataset.Red, New: dataset.Blue},
			}}
			if _, err := db.InsertEditedCtx(ctx, 0, f.Name+"-e", seq); err != nil {
				t.Error(err)
				return
			}
			_ = i
		}
	}()

	// Several readers: every mode, every query, repeatedly.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for rep := 0; rep < 10; rep++ {
				for _, q := range queries {
					for _, mode := range []Mode{ModeBWM, ModeRBM, ModeIndexed} {
						if _, err := db.RangeQueryCtx(ctx, q, mode); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}
		}(r)
	}

	// One deleter: removes some of the pre-populated edited images while
	// queries run (exercises the copy-on-write paths in the BWM index).
	preEdited := db.EditedIDs()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, id := range preEdited {
			if i%2 == 0 {
				if err := db.DeleteCtx(ctx, id); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	// One k-NN reader.
	wg.Add(1)
	go func() {
		defer wg.Done()
		probe := dataset.Flags(1, 16, 12, 2)[0].Img
		for rep := 0; rep < 10; rep++ {
			target := histogram.Extract(probe, db.Quantizer())
			if _, _, err := db.KNNCtx(ctx, query.KNN{Target: target, K: 3, Metric: query.MetricL1}); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	wg.Wait()
	close(stop)

	// The database is still consistent afterwards.
	for _, q := range queries {
		a, err := db.RangeQueryCtx(ctx, q, ModeRBM)
		if err != nil {
			t.Fatal(err)
		}
		b, err := db.RangeQueryCtx(ctx, q, ModeBWM)
		if err != nil {
			t.Fatal(err)
		}
		c, err := db.RangeQueryCtx(ctx, q, ModeIndexed)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(a.IDs, b.IDs) || !sameIDs(a.IDs, c.IDs) {
			t.Fatalf("modes disagree after concurrent phase")
		}
	}
}

// TestConcurrentParallelQueriesAndMutations runs every query surface — k-NN
// refinement fanned out on GOMAXPROCS goroutines — while one writer inserts,
// appends operations to existing sequences, and deletes.
// AppendOps in particular replaces S-tree bounds boxes under readers'
// snapshots. Run with -race.
func TestConcurrentParallelQueriesAndMutations(t *testing.T) {
	ctx := context.Background()
	db := memDB(t)
	populate(t, db, 4, 3, 0.3, 77)
	queries, err := dataset.RangeWorkload(dataset.WorkloadConfig{Queries: 10, Seed: 8}, db.Quantizer())
	if err != nil {
		t.Fatal(err)
	}
	// Build the S-tree up front so every write below maintains it
	// incrementally while indexed readers descend it.
	if _, err := db.RangeQueryCtx(ctx, queries[0], ModeIndexed); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup

	// Writer: inserts a base + edit, appends ops to a pre-existing edited
	// image (replacing its S-tree bounds box), deletes every third insert.
	preEdited := db.EditedIDs()
	wg.Add(1)
	go func() {
		defer wg.Done()
		flags := dataset.Flags(12, 16, 12, 11)
		for i, f := range flags {
			id, err := db.InsertImageCtx(ctx, 0, f.Name, f.Img)
			if err != nil {
				t.Error(err)
				return
			}
			eid, err := db.InsertEditedCtx(ctx, 0, f.Name+"-e", &editops.Sequence{BaseID: id, Ops: []editops.Op{
				editops.Modify{Old: dataset.Red, New: dataset.Blue},
			}})
			if err != nil {
				t.Error(err)
				return
			}
			if err := db.AppendOpsCtx(ctx, preEdited[i%len(preEdited)], []editops.Op{
				editops.Modify{Old: dataset.Blue, New: dataset.Green},
			}); err != nil {
				t.Error(err)
				return
			}
			if i%3 == 0 {
				if err := db.DeleteCtx(ctx, eid); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	// Readers: all four range modes plus multirange, compound and k-NN,
	// each from its own goroutine, all fanning out internally.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				for _, q := range queries {
					for _, mode := range []Mode{ModeBWM, ModeRBM, ModeInstantiate, ModeIndexed} {
						if _, err := db.RangeQueryCtx(ctx, q, mode); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for rep := 0; rep < 8; rep++ {
			mq := query.MultiRange{Bins: []int{0, 3, 9}, PctMin: 0.01, PctMax: 0.9}
			for _, mode := range []Mode{ModeRBM, ModeBWM, ModeInstantiate, ModeIndexed} {
				if _, err := db.RangeQueryMultiCtx(ctx, mq, mode); err != nil {
					t.Error(err)
					return
				}
			}
			c := query.Compound{Terms: []query.Range{queries[0], queries[1]}, Conn: query.Or}
			if _, err := db.CompoundQueryCtx(ctx, c, ModeBWM); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		probe := dataset.Flags(1, 16, 12, 3)[0].Img
		target := histogram.Extract(probe, db.Quantizer())
		for rep := 0; rep < 8; rep++ {
			if _, _, err := db.KNNCtx(ctx, query.KNN{Target: target, K: 4, Metric: query.MetricL2}); err != nil {
				t.Error(err)
				return
			}
			if _, _, err := db.WithinDistanceCtx(ctx, target, 0.5, query.MetricL1); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	wg.Wait()

	// Post-quiesce: all bound modes must agree — including ModeIndexed,
	// whose leaves saw AppendOps replacements mid-run.
	for _, q := range queries {
		ref, err := db.RangeQueryCtx(ctx, q, ModeRBM)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []Mode{ModeBWM, ModeIndexed} {
			res, err := db.RangeQueryCtx(ctx, q, mode)
			if err != nil {
				t.Fatal(err)
			}
			if !sameIDs(ref.IDs, res.IDs) {
				t.Fatalf("mode %v disagrees with RBM after concurrent phase: %v vs %v", mode, res.IDs, ref.IDs)
			}
		}
	}
}
