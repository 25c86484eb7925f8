// Flags: the paper's first evaluation scenario. A database of world-flag
// images is augmented with edited versions (recolors, blurs, crops,
// rotations — stored as operation sequences), then color range queries are
// answered with both RBM and BWM and their execution statistics compared.
package main

import (
	"context"
	"fmt"
	"log"

	mmdb "repro"
	"repro/internal/dataset"
)

func main() {
	ctx := context.Background()
	db, err := mmdb.Open()
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// 40 synthetic flags standing in for the paper's flags.net scrape.
	flags := dataset.Flags(40, 60, 40, 7)
	for _, f := range flags {
		if _, err := db.InsertImageCtx(ctx, f.Name, f.Img); err != nil {
			log.Fatal(err)
		}
	}
	// Augmentation: 4 edited versions per flag, 30% of them containing a
	// non-bound-widening operation (a paste onto another flag).
	for _, id := range db.Binaries() {
		if _, err := db.AugmentCtx(ctx, id, mmdb.AugmentOptions{
			PerBase: 4, OpsPerImage: 4, NonWideningFrac: 0.3, Seed: int64(id),
		}); err != nil {
			log.Fatal(err)
		}
	}
	st, _ := db.Stats()
	fmt.Printf("database: %d flags + %d edited versions (%d widening-only, %d non-widening)\n",
		st.Catalog.Binaries, st.Catalog.Edited, st.Catalog.WideningOnly, st.Catalog.NonWidening)

	queries := []string{
		"at least 30% red",
		"at least 40% blue",
		"between 20% and 50% white",
		"at most 5% green",
	}
	fmt.Printf("\n%-28s %8s %12s %12s %10s\n", "query", "matches", "RBM rules", "BWM rules", "skipped")
	for _, qtext := range queries {
		rbmRes, err := db.QueryCtx(ctx, qtext, mmdb.ModeRBM)
		if err != nil {
			log.Fatal(err)
		}
		bwmRes, err := db.QueryCtx(ctx, qtext, mmdb.ModeBWM)
		if err != nil {
			log.Fatal(err)
		}
		if len(rbmRes.IDs) != len(bwmRes.IDs) {
			log.Fatalf("BWM and RBM disagree on %q", qtext)
		}
		fmt.Printf("%-28s %8d %12d %12d %10d\n", qtext,
			len(bwmRes.IDs), rbmRes.Stats.OpsEvaluated, bwmRes.Stats.OpsEvaluated,
			bwmRes.Stats.EditedSkipped)
	}

	// Show one matched edited flag's stored script: this is ALL the
	// database keeps for it.
	res, _ := db.QueryCtx(ctx, "at least 30% red")
	for _, id := range res.IDs {
		obj, _ := db.Get(id)
		if obj.Kind == mmdb.KindEdited {
			fmt.Printf("\nstored representation of match %d (%s):\n%s",
				id, obj.Name, mmdb.FormatSequence(obj.Seq))
			break
		}
	}
}
