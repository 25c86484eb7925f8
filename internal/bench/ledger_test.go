package bench

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/catalog"
	"repro/internal/colorspace"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/editops"
	"repro/internal/histogram"
	"repro/internal/imaging"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/rbm"
)

// The work ledger: the exact, scheduling-independent work every layer does
// for a fixed probe set at a fixed seed — rule evaluations, candidates
// examined, S-tree nodes visited, instantiations, WAL records and fsyncs,
// seals and compactions — pinned in testdata/work_ledger.json. A change
// that moves any count fails TestWorkLedger with one line per changed
// probe/column; a change that means to move them rewrites the file with
//
//	go test ./internal/bench -run '^TestWorkLedger$' -update
//
// and explains every changed line in CHANGES.md.

var updateLedger = flag.Bool("update", false, "rewrite testdata/work_ledger.json from this run")

const ledgerPath = "testdata/work_ledger.json"

// ledgerBases is the number of flags in the probe database; with four
// scripts per flag it holds 5·ledgerBases candidates.
const ledgerBases = 250

// row is one probe's columns: the trace counters of its queries, summed,
// and the number of ids (or matches) they returned.
type row map[string]int64

// ledger maps a probe name to its row.
type ledger map[string]row

// addTrace folds one query's trace and answer size into r.
func (r row) addTrace(tr *obs.Trace, ids int) {
	for k, v := range tr.Counters() {
		r[k] += v
	}
	r["ids"] += int64(ids)
}

// addAnswerBytes adds the size of the untraced /v1 answer res makes in each
// of its two shapes: answer_bytes_json, what a request without Accept gets
// (with json.Encoder's newline), and answer_bytes_columns, the column frame.
func (r row) addAnswerBytes(t *testing.T, db *core.DB, res *rbm.Result) {
	t.Helper()
	objs := db.Objects(res.IDs)
	if len(objs) != len(res.IDs) {
		t.Fatalf("%d objects for %d ids", len(objs), len(res.IDs))
	}
	// As internal/server's catalogRow describes a catalog entry.
	row := func(i int) (api.Kind, uint64, uint64, string) {
		o := objs[i]
		if o.Kind == catalog.KindBinary {
			return api.KindBinary, uint64(o.W), uint64(o.H), o.Name
		}
		if o.Widening {
			return api.KindEditedWidening, o.Seq.BaseID, uint64(len(o.Seq.Ops)), o.Name
		}
		return api.KindEdited, o.Seq.BaseID, uint64(len(o.Seq.Ops)), o.Name
	}
	stats := api.AnswerStats{BinariesChecked: res.Stats.BinariesChecked, EditedWalked: res.Stats.EditedWalked,
		OpsEvaluated: res.Stats.OpsEvaluated, EditedSkipped: res.Stats.EditedSkipped}
	js, err := api.AppendAnswerEnd(api.AppendObjects(api.AppendAnswerStart(nil, res.IDs), res.IDs, row), stats, nil)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := api.AppendColumnsEnd(api.AppendColumns(nil, res.IDs, row), &stats, nil)
	if err != nil {
		t.Fatal(err)
	}
	r["answer_bytes_json"] += int64(len(js) + 1)
	r["answer_bytes_columns"] += int64(len(frame))
}

// ledgerDB loads paper_mix's shape at ledgerBases flags, built as the root
// package's paperMixDB builds it: 48×32 flags, then four scripts per flag
// (five ops, 30 % non-widening, Merge targets among earlier flags).
func ledgerDB(t *testing.T) (*core.DB, []dataset.NamedImage) {
	t.Helper()
	ctx := context.Background()
	db, err := core.Open(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	flags := dataset.Flags(ledgerBases, 48, 32, 1)
	ids := make([]uint64, len(flags))
	for i, f := range flags {
		if ids[i], err = db.InsertImageCtx(ctx, 0, f.Name, f.Img); err != nil {
			t.Fatal(err)
		}
	}
	aug := dataset.NewAugmenter(dataset.AugmentConfig{PerBase: 4, OpsPerImage: 5, NonWideningFrac: 0.3, Seed: 1})
	for i, f := range flags {
		for _, seq := range aug.ScriptsFor(ids[i], f.Img, ids[:i]) {
			if _, err := db.InsertEditedCtx(ctx, 0, f.Name+"-edit", seq); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db, flags
}

// ledgerSweep is the index sweep's three selectivity shapes, three seeded
// single-bin ranges each: broad ([0,1], admits everything), medium
// ([0.05,0.5]) and narrow (at-least queries from [0.6,0.8]).
func ledgerSweep(bins int) map[string][]query.Range {
	rng := rand.New(rand.NewSource(31))
	out := map[string][]query.Range{}
	for _, sh := range []struct {
		name           string
		min, max, from float64
	}{{"broad", 0, 1, 0}, {"medium", 0.05, 0.5, 0}, {"narrow", 0.6, 1, 0.2}} {
		for i := 0; i < 3; i++ {
			lo := sh.min + rng.Float64()*sh.from
			out[sh.name] = append(out[sh.name], query.Range{Bin: rng.Intn(bins), PctMin: lo, PctMax: sh.max})
		}
	}
	return out
}

// ledgerFigConfigs are Figures 3 and 4's corpora, reduced to keep the
// ledger fast, with their sweeps at defaultSweep's points.
func ledgerFigConfigs() map[string]Config {
	helmet, flag := HelmetConfig(), FlagConfig()
	helmet.Originals, helmet.Edited, helmet.NonWidening, helmet.Queries = 10, 36, 6, 20
	flag.Originals, flag.Edited, flag.NonWidening, flag.Queries = 12, 40, 14, 20
	return map[string]Config{"fig3": helmet, "fig4": flag}
}

// runLedger builds every fixture from scratch and runs the probe set once.
func runLedger(t *testing.T) ledger {
	t.Helper()
	ctx := context.Background()
	out := ledger{}
	db, flags := ledgerDB(t)
	bins, candidates := db.Quantizer().Bins(), int64(len(db.Binaries())+len(db.EditedIDs()))

	// probe runs one traced query into the named probe's row.
	probe := func(name string, run func(tr *obs.Trace) (*rbm.Result, error)) *rbm.Result {
		tr := obs.NewTrace()
		res, err := run(tr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out[name] == nil {
			out[name] = row{}
		}
		out[name].addTrace(tr, len(res.IDs))
		return res
	}
	const text = "at least 20% red"
	res := probe("range_page", func(tr *obs.Trace) (*rbm.Result, error) {
		return db.RangeQueryTextCtx(ctx, text, core.WithLimit(20), core.WithTrace(tr))
	})
	out["range_page"].addAnswerBytes(t, db, res)
	res = probe("range_full", func(tr *obs.Trace) (*rbm.Result, error) {
		return db.RangeQueryTextCtx(ctx, text, core.ModeIndexed, core.WithTrace(tr))
	})
	out["range_full"].addAnswerBytes(t, db, res)
	family, err := colorspace.FamilyForName("orange", db.Quantizer())
	if err != nil || len(family) < 2 {
		t.Fatalf("orange's family %v (%v): want several bins", family, err)
	}
	for _, mode := range []core.Mode{core.ModeRBM, core.ModeBWM, core.ModeIndexed, core.ModeInstantiate} {
		probe("range/"+mode.String(), func(tr *obs.Trace) (*rbm.Result, error) {
			return db.RangeQueryTextCtx(ctx, text, mode, core.WithTrace(tr))
		})
		if mode == core.ModeInstantiate {
			continue
		}
		probe("compound/"+mode.String(), func(tr *obs.Trace) (*rbm.Result, error) {
			return db.CompoundQueryTextCtx(ctx, "at least 10% red and at most 40% white", mode, core.WithTrace(tr))
		})
		probe("multibin/"+mode.String(), func(tr *obs.Trace) (*rbm.Result, error) {
			return db.RangeQueryMultiCtx(ctx, query.MultiRange{Bins: family, PctMin: 0.15, PctMax: 1}, mode, core.WithTrace(tr))
		})
	}
	// A broad text paged to exhaustion: every page's work, summed.
	for after := uint64(0); ; {
		res := probe("paged/broad", func(tr *obs.Trace) (*rbm.Result, error) {
			return db.RangeQueryTextCtx(ctx, "at least 5% white", core.WithLimit(20), core.WithAfter(after), core.WithTrace(tr))
		})
		out["paged/broad"].addAnswerBytes(t, db, res)
		if len(res.IDs) < 20 {
			break
		}
		after = res.IDs[len(res.IDs)-1]
	}
	sweep := ledgerSweep(bins)
	for _, shape := range []string{"broad", "medium", "narrow"} {
		for i, q := range sweep[shape] {
			name := fmt.Sprintf("index/%s/%d", shape, i)
			probe(name, func(tr *obs.Trace) (*rbm.Result, error) {
				return db.RangeQueryCtx(ctx, q, core.ModeIndexed, core.WithTrace(tr))
			})
		}
	}
	out["db"] = row{"candidates": candidates}
	ledgerKNN(t, db, flags, out)
	ledgerFigures(t, out)
	out["write"] = ledgerWrites(t)
	return out
}

// ledgerKNN records k-NN (k=10, L1) for a probe that ties with stored
// images (a stored flag's histogram whose 10th distance is 0: duplicates
// share it) and one that does not (a held-out edit, instantiated, whose
// 10th distance is positive), the first flag of each kind from the fourth
// on; probe_base names the flag.
func ledgerKNN(t *testing.T, db *core.DB, flags []dataset.NamedImage, out ledger) {
	t.Helper()
	ctx := context.Background()
	env := &editops.Env{ResolveImage: func(id uint64) (*imaging.Image, error) { return flags[id-1].Img, nil }}
	aug := dataset.NewAugmenter(dataset.AugmentConfig{PerBase: 1, OpsPerImage: 5, NonWideningFrac: 0.3, Seed: 99})
	for b := 3; b < len(flags) && (out["knn/tied"] == nil || out["knn/untied"] == nil); b++ {
		name, img := "knn/tied", flags[b].Img
		if out[name] != nil {
			name = "knn/untied"
			seq := aug.ScriptsFor(uint64(b+1), flags[b].Img, nil)[0]
			var err error
			if img, err = editops.Apply(flags[b].Img, seq.Ops, env); err != nil || img.Size() == 0 {
				continue
			}
		}
		tr := obs.NewTrace()
		ms, _, err := db.KNNCtx(ctx, query.KNN{Target: histogram.Extract(img, db.Quantizer()), K: 10, Metric: query.MetricL1}, core.WithTrace(tr))
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) == 10 && (ms[9].Dist == 0) == (name == "knn/tied") {
			r := row{"probe_base": int64(b + 1)}
			r.addTrace(tr, len(ms))
			out[name] = r
		}
	}
	if out["knn/tied"] == nil || out["knn/untied"] == nil {
		t.Fatal("no flag gives a tied k-NN probe and a held-out edit of a later one an untied probe")
	}
}

// ledgerFigures records RunWorkload's totals under RBM and BWM at every
// sweep point of the reduced Figure 3 and 4 corpora, and checks that the
// two return the same ids, query by query.
func ledgerFigures(t *testing.T, out ledger) {
	t.Helper()
	ctx := context.Background()
	for fig, cfg := range ledgerFigConfigs() {
		corpus, err := BuildCorpus(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range defaultSweep(cfg) {
			db, err := corpus.BuildDBAt(n)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range []core.Mode{core.ModeRBM, core.ModeBWM} {
				_, tot, err := corpus.RunWorkload(db, mode)
				if err != nil {
					t.Fatal(err)
				}
				out[fmt.Sprintf("%s/seq=%d/%s", fig, n, mode)] = statsRow(tot.Stats, tot.Results)
			}
			for _, q := range corpus.Workload {
				r, err := db.RangeQueryCtx(ctx, q, core.ModeRBM)
				if err != nil {
					t.Fatal(err)
				}
				b, err := db.RangeQueryCtx(ctx, q, core.ModeBWM)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(r.IDs, b.IDs) {
					t.Errorf("%s at %d sequences, %+v: RBM %v, BWM %v", fig, n, q, r.IDs, b.IDs)
				}
			}
			db.Close()
		}
	}
}

// statsRow names a workload's summed statistics in the trace's vocabulary.
func statsRow(st rbm.Stats, ids int) row {
	return row{
		"ids":                     int64(ids),
		"rules_evaluated":         int64(st.OpsEvaluated),
		"edited_walked":           int64(st.EditedWalked),
		"edited_skipped":          int64(st.EditedSkipped),
		"binaries_checked":        int64(st.BinariesChecked),
		"base_matches":            int64(st.BaseMatches),
		"bwm_cluster_hits":        int64(st.ClusterHits),
		"bwm_fastpath_admitted":   int64(st.FastPathAdmitted),
		"bwm_unclassified_walked": int64(st.Unclassified),
	}
}

// ledgerWrites runs a serial write script on a file-backed database with
// no background maintenance — three rounds of inserts each closed by a
// Sync (a seal and a checkpoint), a Compact that merges the three
// segments, then appended ops and a delete — and records the writes' trace
// counters with the log's and the engine's own counts. The log runs its
// default group commit: the writes are serial, so each one's fsync is its
// own, and the configuration record a fresh or checkpointed log is seeded
// with wakes no flusher and rides the next write's fsync, so the fsync
// count repeats.
func ledgerWrites(t *testing.T) row {
	t.Helper()
	tr := obs.NewTrace()
	ctx := obs.ContextWithSpan(context.Background(), tr.Root())
	db, err := core.Open(core.Config{Path: filepath.Join(t.TempDir(), "ledger.db")})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	flags := dataset.Flags(6, 24, 16, 3)
	aug := dataset.NewAugmenter(dataset.AugmentConfig{PerBase: 2, OpsPerImage: 4, NonWideningFrac: 0.3, Seed: 3})
	var edited []uint64
	for round := 0; round < 3; round++ {
		for _, f := range flags[2*round : 2*round+2] {
			id, err := db.InsertImageCtx(ctx, 0, f.Name, f.Img)
			if err != nil {
				t.Fatal(err)
			}
			for _, seq := range aug.ScriptsFor(id, f.Img, nil) {
				eid, err := db.InsertEditedCtx(ctx, 0, f.Name+"-edit", seq)
				if err != nil {
					t.Fatal(err)
				}
				edited = append(edited, eid)
			}
		}
		if err := db.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	for _, id := range edited[:2] {
		if err := db.AppendOpsCtx(ctx, id, editops.PasteOnto(imaging.Rect{X1: 2, Y1: 2}, 1, 0, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.DeleteCtx(ctx, edited[2]); err != nil {
		t.Fatal(err)
	}
	r := row{}
	r.addTrace(tr, 0)
	delete(r, "ids")
	wal, ok := db.WALStats()
	seg, ok2 := db.SegmentStats()
	if !ok || !ok2 {
		t.Fatal("file-backed database reports no WAL or engine")
	}
	r["wal_stats_records"] = wal.Records
	r["wal_stats_fsyncs"] = wal.Fsyncs
	r["wal_stats_checkpoints"] = wal.Checkpoints
	r["segment_seals"] = seg.Seals
	r["segment_compactions"] = seg.Compactions
	return r
}

// checkLedger asserts what the counts must show whatever their values.
func checkLedger(t *testing.T, l ledger) {
	t.Helper()
	candidates := l["db"]["candidates"]
	if candidates < 1000 {
		t.Errorf("the probe database holds %d candidates, want at least 1000", candidates)
	}
	// The S-tree earns its place on a selective query by looking at fewer
	// nodes than there are candidates, and it must have run. A whole tree
	// of fanout 16 has about candidates/15 nodes, so that alone holds even
	// when nothing is pruned; a descent that prunes nothing also checks
	// every item's box at the leaves.
	for _, shape := range []string{"medium", "narrow"} {
		for i := 0; i < 3; i++ {
			name := fmt.Sprintf("index/%s/%d", shape, i)
			if n := l[name]["index_nodes_visited"]; n <= 0 || n >= candidates {
				t.Errorf("%s: %d nodes visited, want within (0, %d)", name, n, candidates)
			}
			if n := l[name]["index_leaf_checks"]; n >= candidates {
				t.Errorf("%s: %d leaf boxes checked over %d candidates: nothing pruned", name, n, candidates)
			}
		}
	}
	// The paper's claim, exactly: BWM evaluates no more rules than RBM
	// (ledgerFigures checks that their ids agree).
	for name, r := range l {
		if rest, ok := strings.CutSuffix(name, "/bwm"); ok && strings.HasPrefix(name, "fig") {
			if b, rb := r["rules_evaluated"], l[rest+"/rbm"]["rules_evaluated"]; b > rb {
				t.Errorf("%s: BWM evaluates %d rules, RBM %d", rest, b, rb)
			}
		}
	}
}

// diffLedgers lists every probe/column whose count differs, one line each,
// in name order; a count on one side only reads "absent" on the other.
func diffLedgers(old, cur ledger) []string {
	names := map[string]bool{}
	for _, l := range []ledger{old, cur} {
		for p, r := range l {
			for c := range r {
				names[p+"/"+c] = true
			}
			if len(r) == 0 {
				names[p+"/"] = true
			}
		}
	}
	var out []string
	for name := range names {
		i := strings.LastIndexByte(name, '/')
		p, c := name[:i], name[i+1:]
		show := func(l ledger) string {
			if v, ok := l[p][c]; ok {
				return fmt.Sprint(v)
			}
			return "absent"
		}
		if a, b := show(old), show(cur); a != b {
			out = append(out, fmt.Sprintf("%s: %s → %s", name, a, b))
		}
	}
	sort.Strings(out)
	return out
}

// TestWorkLedger runs the probe set twice — a count that differs between
// the two runs is a nondeterministic column and fails here rather than
// flaking — and compares it exactly with testdata/work_ledger.json.
func TestWorkLedger(t *testing.T) {
	first := runLedger(t)
	checkLedger(t, first)
	if diff := diffLedgers(first, runLedger(t)); len(diff) > 0 {
		t.Fatalf("the probe set does different work on a second run:\n%s", strings.Join(diff, "\n"))
	}
	if *updateLedger {
		data, err := json.MarshalIndent(first, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ledgerPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s: %d probes", ledgerPath, len(first))
		return
	}
	data, err := os.ReadFile(ledgerPath)
	if err != nil {
		t.Fatalf("%v (create it with -update)", err)
	}
	var want ledger
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", ledgerPath, err)
	}
	if diff := diffLedgers(want, first); len(diff) > 0 {
		t.Fatalf("work differs from %s (probe/column: committed → now; if intended, rerun with -update and explain each line in CHANGES.md):\n%s",
			ledgerPath, strings.Join(diff, "\n"))
	}
}
