package main

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	mmdb "repro"
)

// Everything here runs after the timed phases, never inside them.

func (r *repResult) check(ok bool, format string, a ...any) {
	r.checks++
	if !ok {
		r.checkFails = append(r.checkFails, fmt.Sprintf(format, a...))
	}
}

// verifyFromDisk reopens the repetition's directory and checks that every
// acknowledged id is there and the store is clean. With crossMode > 0 it
// also runs the cross-mode check, instantiating that many of the sampled
// queries.
func verifyFromDisk(ctx context.Context, dir string, w *workload, r *repResult, crossMode int) error {
	t0 := time.Now()
	db, err := openSegmented(dir, true)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer db.Close()
	r.store.reopenS = time.Since(t0).Seconds()
	if wal, ok := db.WALStats(); ok {
		r.store.replayed = wal.Replayed
	}
	missing := 0
	for _, a := range r.timed.acked {
		if _, err := db.Get(a.id); err != nil {
			missing++
		}
	}
	r.check(missing == 0, "%d of %d acknowledged ids missing after reopen", missing, len(r.timed.acked))
	chk, err := db.CheckStore()
	// At the seed commit the engine's scan expects segment ids to ascend
	// along the stack, but a merge of a run above the oldest segment puts
	// its output, which has the newest id, where the run was. That report
	// is counted (store.check_order_reports) rather than failed, so that the
	// frame, footer and filter checks still gate; see README.md.
	var problems []string
	for _, p := range chk.Problems {
		if strings.HasPrefix(p, "segment order violation") {
			r.store.orderReports++
		} else {
			problems = append(problems, p)
		}
	}
	r.check(err == nil && len(problems) == 0, "CheckStore after reopen: err=%v problems=%v", err, problems)
	if crossMode > 0 {
		return crossModeCheck(ctx, db, w.verify, crossMode, r)
	}
	return nil
}

// crossModeCheck is the paper's guarantee on the sampled queries: rbm, bwm
// and indexed give the same answer, and that answer contains the
// instantiated one (no false negatives). Instantiating every candidate is
// slow, so only the first instantiate queries pay for it.
func crossModeCheck(ctx context.Context, db *mmdb.DB, ops []op, instantiate int, r *repResult) error {
	var bounds, exact int
	for i := range ops {
		text := ops[i].Text
		rbm, err := db.QueryCompoundCtx(ctx, text, mmdb.ModeRBM)
		if err != nil {
			return fmt.Errorf("verify %q: %w", text, err)
		}
		for _, mode := range []mmdb.Mode{mmdb.ModeBWM, mmdb.ModeIndexed} {
			res, err := db.QueryCompoundCtx(ctx, text, mode)
			if err != nil {
				return fmt.Errorf("verify %q in %v: %w", text, mode, err)
			}
			r.check(slices.Equal(res.IDs, rbm.IDs), "%q: %v answers %d ids, rbm %d", text, mode, len(res.IDs), len(rbm.IDs))
		}
		if i >= instantiate {
			continue
		}
		inst, err := db.QueryCompoundCtx(ctx, text, mmdb.ModeInstantiate)
		if err != nil {
			return fmt.Errorf("verify %q instantiated: %w", text, err)
		}
		r.check(subset(inst.IDs, rbm.IDs), "%q: the bounds answer misses an instantiated match", text)
		bounds += len(rbm.IDs)
		exact += len(inst.IDs)
	}
	if bounds > 0 {
		r.precision = float64(exact) / float64(bounds)
	}
	return nil
}

// subset reports whether every element of a is in b; both are ascending.
func subset(a, b []uint64) bool {
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j == len(b) || b[j] != x {
			return false
		}
	}
	return true
}

// verifyCluster compares sampled reads through the coordinator with an
// in-memory single-node twin loaded with the same objects under the same
// ids, and records the followers' lag.
func (b *bench) verifyCluster(ctx context.Context, cn *clusterNode, part *corpus, w *workload, r *repResult) error {
	twin, err := mmdb.Open(mmdb.WithQuantizer(quantizer()))
	if err != nil {
		return err
	}
	defer twin.Close()
	if err := part.load(ctx, facadeInserter(twin), 1); err != nil {
		return fmt.Errorf("twin: %w", err)
	}
	// Ids were handed out in arrival order; replay the acknowledged writes in
	// id order so a script's base is always there first.
	acked := slices.Clone(r.timed.acked)
	slices.SortFunc(acked, func(x, y ack) int { return cmp.Compare(x.id, y.id) })
	for _, a := range acked {
		if a.op.Kind == opInsertImage {
			_, err = twin.InsertImageCtx(ctx, a.op.Name, a.op.Image, mmdb.WithID(a.id))
		} else {
			_, err = twin.InsertEditedCtx(ctx, a.op.Name, a.op.Seq, mmdb.WithID(a.id))
		}
		if err != nil {
			return fmt.Errorf("twin insert %d: %w", a.id, err)
		}
	}
	compared := 0
	for i := range w.ops {
		o := &w.ops[i]
		if o.isWrite() {
			continue
		}
		if compared == b.sc.twinReads {
			break
		}
		compared++
		var got, want []uint64
		if o.Kind == opQuery {
			res, err := cn.rc.Coord.Query(ctx, o.Text, o.Mode, nil)
			if err != nil {
				return fmt.Errorf("verify %q: %w", o.Text, err)
			}
			exp, err := twin.QueryCompoundCtx(ctx, o.Text)
			if err != nil {
				return fmt.Errorf("twin %q: %w", o.Text, err)
			}
			r.check(!res.Partial, "%q: partial answer, missed %v", o.Text, res.Missed)
			got, want = res.IDs, exp.IDs
		} else {
			res, err := cn.rc.Coord.MultiRange(ctx, o.Bins, o.Lo, o.Hi, o.Mode, nil)
			if err != nil {
				return fmt.Errorf("verify multirange %v: %w", o.Bins, err)
			}
			exp, err := twin.RangeQueryMultiCtx(ctx, mmdb.MultiRange{Bins: o.Bins, PctMin: o.Lo, PctMax: o.Hi})
			if err != nil {
				return fmt.Errorf("twin multirange %v: %w", o.Bins, err)
			}
			r.check(!res.Partial, "multirange %v: partial answer, missed %v", o.Bins, res.Missed)
			got, want = res.IDs, exp.IDs
		}
		r.check(slices.Equal(got, want), "op %d: cluster answers %d ids, twin %d", i, len(got), len(want))
	}
	for _, rs := range cn.rc.Sets {
		for _, info := range rs.Probe(ctx) {
			r.store.followerLag = max(r.store.followerLag, info.Status.Lag)
		}
	}
	return nil
}
