package mmdb_test

import (
	"context"
	"fmt"
	"log"
	"strings"

	mmdb "repro"
)

// Example shows the minimal insert-edit-query loop: the edited image is
// stored as two operations and matched through rule bounds, never pixels.
func Example() {
	ctx := context.Background()
	db, err := mmdb.Open()
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	blue, _ := mmdb.LookupColor("blue")
	redC, _ := mmdb.LookupColor("red")

	id, _ := db.InsertImageCtx(ctx, "square", mmdb.NewFilledImage(10, 10, blue))
	eid, _ := db.InsertEditedCtx(ctx, "square-red", &mmdb.Sequence{
		BaseID: id,
		Ops:    []mmdb.Op{mmdb.Modify{Old: blue, New: redC}},
	})

	res, _ := db.QueryCtx(ctx, "at least 50% red")
	fmt.Println("matches:", res.IDs, "edited id:", eid)
	// Output: matches: [2] edited id: 2
}

// ExampleDB_QueryCtx_modes contrasts the paper's two methods on the same
// query: identical results, different rule-evaluation counts.
func ExampleDB_QueryCtx_modes() {
	ctx := context.Background()
	db, _ := mmdb.Open()
	defer db.Close()

	blue, _ := mmdb.LookupColor("blue")
	green, _ := mmdb.LookupColor("green")
	base, _ := db.InsertImageCtx(ctx, "b", mmdb.NewFilledImage(8, 8, blue))
	for i := 0; i < 3; i++ {
		db.InsertEditedCtx(ctx, "edit", &mmdb.Sequence{
			BaseID: base,
			Ops:    []mmdb.Op{mmdb.Modify{Old: green, New: green}},
		})
	}

	rbm, _ := db.QueryCtx(ctx, "at least 50% blue", mmdb.ModeRBM)
	bwm, _ := db.QueryCtx(ctx, "at least 50% blue", mmdb.ModeBWM)
	fmt.Println("same results:", len(rbm.IDs) == len(bwm.IDs))
	fmt.Println("RBM rule evaluations:", rbm.Stats.OpsEvaluated)
	fmt.Println("BWM rule evaluations:", bwm.Stats.OpsEvaluated)
	// Output:
	// same results: true
	// RBM rule evaluations: 3
	// BWM rule evaluations: 0
}

// ExampleSynthesize demonstrates the operation set's completeness: any
// raster can be turned into any other.
func ExampleSynthesize() {
	redC, _ := mmdb.LookupColor("red")
	white, _ := mmdb.LookupColor("white")
	base := mmdb.NewFilledImage(2, 2, redC)
	target := mmdb.NewFilledImage(2, 2, white)
	target.Set(1, 1, redC)

	ops, _ := mmdb.Synthesize(base, target, nil)
	fmt.Println("operations:", len(ops))
	// Output: operations: 6
}

// ExampleParseSequence round-trips the text script format the CLI uses.
func ExampleParseSequence() {
	script := `base 7
define 0 0 32 32
modify #cc0000 #0033cc
merge null
`
	seq, _ := mmdb.ParseSequence(strings.NewReader(script))
	fmt.Printf("base=%d ops=%d\n", seq.BaseID, len(seq.Ops))
	fmt.Print(mmdb.FormatSequence(seq))
	// Output:
	// base=7 ops=3
	// base 7
	// define 0 0 32 32
	// modify #cc0000 #0033cc
	// merge null
}

// ExampleDB_ExpandToBases shows the paper's base↔edited connection: a match
// on an edited image also surfaces its original.
func ExampleDB_ExpandToBases() {
	ctx := context.Background()
	db, _ := mmdb.Open()
	defer db.Close()
	blue, _ := mmdb.LookupColor("blue")
	redC, _ := mmdb.LookupColor("red")
	base, _ := db.InsertImageCtx(ctx, "original", mmdb.NewFilledImage(4, 4, blue))
	db.InsertEditedCtx(ctx, "variant", &mmdb.Sequence{
		BaseID: base,
		Ops:    []mmdb.Op{mmdb.Modify{Old: blue, New: redC}},
	})

	res, _ := db.QueryCtx(ctx, "at least 90% red")
	fmt.Println("direct matches:", res.IDs)
	fmt.Println("with originals:", db.ExpandToBases(res.IDs))
	// Output:
	// direct matches: [2]
	// with originals: [1 2]
}

// ExampleDB_Bounds inspects the rule engine's conservative interval for an
// edited image: after a recolor, the image may be anywhere between 0% and
// 100% blue.
func ExampleDB_Bounds() {
	ctx := context.Background()
	db, _ := mmdb.Open()
	defer db.Close()
	blue, _ := mmdb.LookupColor("blue")
	redC, _ := mmdb.LookupColor("red")
	base, _ := db.InsertImageCtx(ctx, "b", mmdb.NewFilledImage(10, 10, blue))
	eid, _ := db.InsertEditedCtx(ctx, "e", &mmdb.Sequence{
		BaseID: base,
		Ops:    []mmdb.Op{mmdb.Modify{Old: blue, New: redC}},
	})

	bin, _ := db.BinForColor("blue")
	b, _ := db.Bounds(eid, bin)
	lo, hi := b.PctRange()
	fmt.Printf("blue fraction ∈ [%.0f%%, %.0f%%]\n", lo*100, hi*100)
	// Output: blue fraction ∈ [0%, 100%]
}
