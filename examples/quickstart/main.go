// Quickstart: the smallest end-to-end use of the public API — insert a
// raster, store an edited version as an operation sequence, and run color
// range queries answered without ever instantiating the edit.
package main

import (
	"context"
	"fmt"
	"log"

	mmdb "repro"
)

func main() {
	ctx := context.Background()
	// An in-memory database with the default 64-bin RGB quantizer.
	db, err := mmdb.Open()
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// A 100×100 image: top half blue, bottom half white.
	blue, _ := mmdb.LookupColor("blue")
	white, _ := mmdb.LookupColor("white")
	red, _ := mmdb.LookupColor("red")
	img := mmdb.NewFilledImage(100, 100, white)
	for y := 0; y < 50; y++ {
		for x := 0; x < 100; x++ {
			img.Set(x, y, blue)
		}
	}
	id, err := db.InsertImageCtx(ctx, "banner", img)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("inserted banner as id %d (50%% blue, 50%% white)\n", id)

	// Store an edited version AS A SEQUENCE: recolor blue to red. This
	// costs a few dozen bytes instead of a 30 KB raster copy.
	seq := &mmdb.Sequence{
		BaseID: id,
		Ops: []mmdb.Op{
			mmdb.Define{Region: mmdb.R(0, 0, 100, 100)},
			mmdb.Modify{Old: blue, New: red},
		},
	}
	eid, err := db.InsertEditedCtx(ctx, "banner-red", seq)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("inserted edited version as id %d (%d ops)\n", eid, len(seq.Ops))

	// Range queries in the paper's phrasing. The edited image is matched
	// through rule-derived bounds — its pixels are never computed.
	for _, q := range []string{
		"at least 25% blue",
		"at least 25% red",
		"at most 10% red",
		"between 40% and 60% white",
	} {
		res, err := db.QueryCtx(ctx, q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s -> ids %v  (rule evaluations: %d)\n", q, res.IDs, res.Stats.OpsEvaluated)
	}

	// The paper's base↔edited connection: expanding a match set pulls in
	// the original of every matched edit.
	res, _ := db.QueryCtx(ctx, "at least 25% red")
	fmt.Printf("expanded to bases: %v\n", db.ExpandToBases(res.IDs))

	// Storage economics of the sequence representation.
	rasterBytes, seqBytes, _ := db.StorageFootprint()
	fmt.Printf("storage: %d raster bytes vs %d sequence bytes\n", rasterBytes, seqBytes)
}
