package bench

import (
	"strings"
	"testing"
)

func TestCompareCluster(t *testing.T) {
	cfg := HelmetConfig()
	cfg.Originals, cfg.Edited, cfg.NonWidening = 8, 16, 4
	cfg.Queries, cfg.Repetitions = 10, 1
	corpus, err := BuildCorpus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := corpus.CompareCluster([]int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points %v", pts)
	}
	if pts[0].Shards != 1 || pts[1].Shards != 2 {
		t.Fatalf("shard counts %v", pts)
	}
	if pts[0].Results != pts[1].Results {
		t.Fatalf("result totals disagree: %+v", pts)
	}
	if pts[0].Speedup != 1 {
		t.Fatalf("baseline speedup = %v", pts[0].Speedup)
	}
	var buf strings.Builder
	WriteCluster(&buf, pts)
	if !strings.Contains(buf.String(), "shards") {
		t.Fatalf("table output: %q", buf.String())
	}
	buf.Reset()
	if err := WriteClusterJSON(&buf, pts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\"experiment\": \"cluster\"") {
		t.Fatalf("json output: %q", buf.String())
	}
}
