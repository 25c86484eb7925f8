package cluster

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
)

func testMap(n int) *ShardMap {
	m := &ShardMap{}
	for i := 0; i < n; i++ {
		m.Shards = append(m.Shards, ShardInfo{ID: fmt.Sprintf("s%d", i)})
	}
	return m
}

func TestShardMapValidate(t *testing.T) {
	if err := (&ShardMap{}).Validate(); err == nil {
		t.Fatal("empty map must not validate")
	}
	if err := (&ShardMap{Shards: []ShardInfo{{ID: ""}}}).Validate(); err == nil {
		t.Fatal("empty shard id must not validate")
	}
	if err := (&ShardMap{Shards: []ShardInfo{{ID: "a"}, {ID: "a"}}}).Validate(); err == nil {
		t.Fatal("duplicate shard id must not validate")
	}
	if err := testMap(3).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestShardMapSaveLoad(t *testing.T) {
	m := testMap(3)
	m.VNodes = 16
	m.Shards[1].Addr = "http://127.0.0.1:7702"
	path := filepath.Join(t.TempDir(), "map.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadShardMap(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip: %+v != %+v", got, m)
	}
	if _, err := LoadShardMap(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file must error")
	}
}

// TestRingDeterministic: two rings from equal maps agree everywhere —
// the property that lets independent coordinators route identically.
func TestRingDeterministic(t *testing.T) {
	a, err := NewRing(testMap(4))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing(testMap(4))
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 500; id++ {
		if a.ShardFor(id) != b.ShardFor(id) {
			t.Fatalf("rings disagree on id %d", id)
		}
	}
}

// TestRingBalance: with default vnodes every shard owns a nontrivial share
// of keys. Not a tight bound — just a guard against a degenerate ring.
func TestRingBalance(t *testing.T) {
	r, err := NewRing(testMap(4))
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	const n = 2000
	for id := uint64(1); id <= n; id++ {
		counts[r.ShardFor(id)]++
	}
	for shard, got := range counts {
		if got < n/16 {
			t.Fatalf("shard %s owns only %d/%d keys", shard, got, n)
		}
	}
	if len(counts) != 4 {
		t.Fatalf("only %d shards own keys", len(counts))
	}
}

func TestRouteKey(t *testing.T) {
	if RouteKey(7, 0) != 7 {
		t.Fatal("binary routes by its own id")
	}
	if RouteKey(7, 3) != 3 {
		t.Fatal("edited routes by its base id")
	}
}
