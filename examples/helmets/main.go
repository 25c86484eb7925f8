// Helmets: the paper's second evaluation scenario — logo-style recognition
// over college-football-helmet images — demonstrating query-by-example
// (k-NN) with bound-based pruning of edited images, and persistence: the
// database is written to disk, reopened, and queried again.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	mmdb "repro"
	"repro/internal/dataset"
)

func main() {
	ctx := context.Background()
	dir, err := os.MkdirTemp("", "helmets-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "helmets.esidb")

	db, err := mmdb.Open(mmdb.WithPath(path))
	if err != nil {
		log.Fatal(err)
	}

	helmets := dataset.Helmets(25, 64, 48, 3)
	for _, h := range helmets {
		if _, err := db.InsertImageCtx(ctx, h.Name, h.Img); err != nil {
			log.Fatal(err)
		}
	}
	for _, id := range db.Binaries() {
		if _, err := db.AugmentCtx(ctx, id, mmdb.AugmentOptions{
			PerBase: 3, OpsPerImage: 5, NonWideningFrac: 0.15, Seed: int64(id),
		}); err != nil {
			log.Fatal(err)
		}
	}
	st, _ := db.Stats()
	fmt.Printf("database: %d helmets + %d edited versions\n", st.Catalog.Binaries, st.Catalog.Edited)

	// Query by example: a "game photo" of a helmet we have never stored —
	// a freshly generated one from the same family.
	probe := dataset.Helmets(1, 64, 48, 42)[0]
	matches, knnStats, err := db.QueryByExampleCtx(ctx, probe.Img, 5, mmdb.MetricL1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n5 nearest neighbors of a new %s photo:\n", probe.Name)
	for _, m := range matches {
		obj, _ := db.Get(m.ID)
		fmt.Printf("  %6d  %-8s %-24s dist=%.4f\n", m.ID, obj.Kind, obj.Name, m.Dist)
	}
	fmt.Printf("bound pruning skipped %d of %d edited images without instantiation\n",
		knnStats.EditedPruned, knnStats.EditedPruned+knnStats.EditedInstantiated)

	// Persist and reopen: everything (rasters, scripts, classifications)
	// survives in the segment files under path+".segments/".
	if err := db.Close(); err != nil {
		log.Fatal(err)
	}
	db2, err := mmdb.Open(mmdb.WithPath(path))
	if err != nil {
		log.Fatal(err)
	}
	defer db2.Close()
	res, err := db2.QueryCtx(ctx, "at least 20% maroon")
	if err != nil {
		log.Fatal(err)
	}
	st2, err := db2.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nreopened %s (%d segments, %d live bytes): \"at least 20%% maroon\" -> %d matches\n",
		filepath.Base(path), st2.Segment.Segments, st2.Segment.LiveBytes, len(res.IDs))
}
