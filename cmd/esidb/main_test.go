package main

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	mmdb "repro"
	"repro/internal/obs"
)

// TestQueryModeResolvesLikeV1 runs `esidb query` on a small database and
// reads which mode answered from esidb_queries_total: an unset -mode
// resolves as /v1 resolves it — the S-tree without a limit, the windowed
// scan under one — and a named mode stands.
func TestQueryModeResolvesLikeV1(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.db")
	db, err := mmdb.Open(mmdb.WithPath(path))
	if err != nil {
		t.Fatal(err)
	}
	blue := mmdb.RGB{B: 255}
	if _, err := db.InsertImageCtx(context.Background(), "blue", mmdb.NewFilledImage(8, 8, blue)); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		flags []string
		mode  string
	}{
		{nil, "indexed"},
		{[]string{"-limit", "1"}, "bwm"},
		{[]string{"-mode", "rbm"}, "rbm"},
	} {
		counter := `esidb_queries_total{mode="` + tc.mode + `"}`
		before := obs.Default().SnapshotCounters()[counter]
		args := append([]string{"-db", path, "-ids"}, tc.flags...)
		if err := cmdQuery(append(args, "at least 50% blue")); err != nil {
			t.Fatalf("query %v: %v", tc.flags, err)
		}
		if got := obs.Default().SnapshotCounters()[counter] - before; got != 1 {
			t.Errorf("query %v: %s moved by %d, want 1", tc.flags, counter, got)
		}
	}
	err = cmdQuery([]string{"-db", path, "-mode", "fast", "at least 50% blue"})
	if err == nil || !strings.Contains(err.Error(), "indexed") {
		t.Fatalf("unknown mode: err %v, want one listing the valid names", err)
	}
}
