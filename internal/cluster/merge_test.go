package cluster

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"sort"
	"testing"

	mmdb "repro"
	"repro/internal/obs"
	"repro/internal/server"
)

// refMergeAnswers is the set-union the one-pass merge replaced: a seen-map
// over every live answer's ids, then one sort. It is the referee for
// mergeAnswers on ascending inputs.
func refMergeAnswers(vals []*ShardAnswer, ok []bool, missed []string, tr *obs.Trace) *Result {
	res := &Result{Missed: missed, Partial: len(missed) > 0}
	if res.Partial {
		tr.Count(obs.TClusterPartialResults, 1)
	}
	seen := make(map[uint64]bool)
	var dupes int64
	for i, a := range vals {
		if !ok[i] || a == nil {
			continue
		}
		for _, id := range a.IDs {
			if seen[id] {
				dupes++
				continue
			}
			seen[id] = true
			res.IDs = append(res.IDs, id)
		}
		res.Stats.Add(a.Stats)
	}
	tr.Count(obs.TClusterDuplicatesMerged, dupes)
	sort.Slice(res.IDs, func(i, j int) bool { return res.IDs[i] < res.IDs[j] })
	return res
}

// checkMerge holds mergeAnswers to the reference on one input: the same
// ids (nil when empty), stats, partial flag, missed list and trace
// counters.
func checkMerge(t *testing.T, vals []*ShardAnswer, ok []bool, missed []string) {
	t.Helper()
	gotTr, wantTr := obs.NewTrace(), obs.NewTrace()
	got := mergeAnswers(vals, ok, missed, gotTr)
	want := refMergeAnswers(vals, ok, missed, wantTr)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merge %+v != map-and-sort %+v\ninput %v ok %v", got, want, answerIDs(vals), ok)
	}
	for _, c := range []string{obs.TClusterDuplicatesMerged, obs.TClusterPartialResults} {
		if g, w := gotTr.Get(c), wantTr.Get(c); g != w {
			t.Fatalf("%s: merge counted %d, map-and-sort %d\ninput %v ok %v", c, g, w, answerIDs(vals), ok)
		}
	}
	for i := 1; i < len(got.IDs); i++ {
		if got.IDs[i] <= got.IDs[i-1] {
			t.Fatalf("merged ids not strictly ascending: %v", got.IDs)
		}
	}
}

func answerIDs(vals []*ShardAnswer) [][]uint64 {
	out := make([][]uint64, len(vals))
	for i, a := range vals {
		if a != nil {
			out[i] = a.IDs
		}
	}
	return out
}

// randomAnswers draws up to five shard answers over a small id space, so
// lists overlap: strictly ascending ids, some lists empty, some shards
// missed (ok false, answer nil), random stats.
func randomAnswers(rng *rand.Rand) ([]*ShardAnswer, []bool, []string) {
	n := rng.Intn(6)
	vals := make([]*ShardAnswer, n)
	ok := make([]bool, n)
	var missed []string
	space := 1 + rng.Intn(60)
	for i := range vals {
		if rng.Intn(5) == 0 {
			missed = append(missed, string(rune('a'+i)))
			continue
		}
		ok[i] = true
		a := &ShardAnswer{Stats: mmdb.QueryStats{
			BinariesChecked: rng.Intn(50), EditedWalked: rng.Intn(50),
			OpsEvaluated: rng.Intn(200), EditedSkipped: rng.Intn(50),
		}}
		density := rng.Float64()
		for id := 1; id <= space; id++ {
			if rng.Float64() < density {
				a.IDs = append(a.IDs, uint64(id))
			}
		}
		vals[i] = a
	}
	return vals, ok, missed
}

// TestMergeAnswersMatchesMapAndSort is the merge's property test against
// the set-union it replaced.
func TestMergeAnswersMatchesMapAndSort(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for trial := 0; trial < 2000; trial++ {
		vals, ok, missed := randomAnswers(rng)
		checkMerge(t, vals, ok, missed)
	}
	// The edges by name: nothing at all, only empty answers, one shard
	// missed beside a live one, and full overlap.
	checkMerge(t, nil, nil, nil)
	checkMerge(t, []*ShardAnswer{{}, {IDs: []uint64{}}}, []bool{true, true}, nil)
	checkMerge(t, []*ShardAnswer{nil, {IDs: []uint64{2, 5}}}, []bool{false, true}, []string{"s0"})
	same := []uint64{1, 2, 3}
	checkMerge(t, []*ShardAnswer{{IDs: same}, {IDs: same}, {IDs: same}}, []bool{true, true, true}, nil)
}

// FuzzMergeAnswers drives the same referee from arbitrary bytes: each byte
// appends to one of k shard lists (its low bits pick the shard, the rest the
// gap to that list's previous id), and mask marks shards as missed.
func FuzzMergeAnswers(f *testing.F) {
	f.Add(uint8(3), uint8(0), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(2), uint8(1), []byte{0, 0, 2, 2, 255, 254})
	f.Add(uint8(5), uint8(0b10100), []byte{9, 18, 27, 200, 100, 7})
	f.Add(uint8(1), uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, k, mask uint8, data []byte) {
		n := int(k%6) + 1
		vals := make([]*ShardAnswer, n)
		ok := make([]bool, n)
		var missed []string
		last := make([]uint64, n)
		for i := range vals {
			if mask&(1<<i) != 0 {
				missed = append(missed, string(rune('a'+i)))
				continue
			}
			ok[i] = true
			vals[i] = &ShardAnswer{Stats: mmdb.QueryStats{BinariesChecked: i + 1}}
		}
		for _, b := range data {
			i := int(b) % n
			if !ok[i] {
				continue
			}
			last[i] += uint64(b)/uint64(n)%8 + 1
			vals[i].IDs = append(vals[i].IDs, last[i])
		}
		checkMerge(t, vals, ok, missed)
	})
}

// TestShardAnswersAscending pins the contract the merge relies on: every
// transport — InProc, a ReplicaSet over a node, HTTPShard over a server —
// answers range, compound and multi-bin queries in strictly ascending id
// order, in every mode and in the default.
func TestShardAnswersAscending(t *testing.T) {
	ctx := context.Background()
	db := makeCorpus(9, 3, 42).seedSingle(t)
	rs, err := NewReplicaSet("rs", ReplicaMember{ID: "n", Conn: NewReplicaNode(ctx, "n", db)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(db))
	t.Cleanup(ts.Close)
	shards := []Shard{NewInProc("inproc", db), rs, NewHTTPShard("http", ts.URL, ts.Client())}

	queries := map[string]func(Shard, string) (*ShardAnswer, error){
		"range": func(sh Shard, mode string) (*ShardAnswer, error) {
			return sh.Query(ctx, "at least 10% red", mode, nil)
		},
		"compound": func(sh Shard, mode string) (*ShardAnswer, error) {
			return sh.Query(ctx, "at least 40% red or at least 40% blue", mode, nil)
		},
		"multirange": func(sh Shard, mode string) (*ShardAnswer, error) {
			return sh.MultiRange(ctx, []int{0, 1, 2}, 0, 0.9, mode, nil)
		},
	}
	for _, sh := range shards {
		for _, mode := range append(mmdb.ModeNames(), "") {
			for name, run := range queries {
				a, err := run(sh, mode)
				if err != nil {
					t.Fatalf("%s %s mode %q: %v", sh.ID(), name, mode, err)
				}
				if len(a.IDs) < 2 {
					t.Fatalf("%s %s mode %q: %d ids is too few to show an order", sh.ID(), name, mode, len(a.IDs))
				}
				for i := 1; i < len(a.IDs); i++ {
					if a.IDs[i] <= a.IDs[i-1] {
						t.Fatalf("%s %s mode %q: ids not strictly ascending at %d: %v", sh.ID(), name, mode, i, a.IDs)
					}
				}
			}
		}
	}
}

// BenchmarkMergeAnswers merges what three shards answer for a broad query:
// 1 400 of the ids 1..2 000, each on one shard, so the lists interleave.
func BenchmarkMergeAnswers(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vals := []*ShardAnswer{{}, {}, {}}
	for _, i := range rng.Perm(2000)[:1400] {
		a := vals[rng.Intn(len(vals))]
		a.IDs = append(a.IDs, uint64(i+1))
	}
	for _, a := range vals {
		sort.Slice(a.IDs, func(i, j int) bool { return a.IDs[i] < a.IDs[j] })
	}
	ok := []bool{true, true, true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if res := mergeAnswers(vals, ok, nil, nil); len(res.IDs) != 1400 {
			b.Fatalf("%d ids merged", len(res.IDs))
		}
	}
}
