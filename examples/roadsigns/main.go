// Road signs: the motivating application from the paper's introduction —
// autonomous-navigation sign recognition using the color conventions signs
// follow worldwide. Demonstrates why database augmentation helps: a probe
// photographed under bad lighting fails to match the stored originals, but
// matches an augmented (darkened) edited version, and the base↔edited
// connection recovers the original sign.
package main

import (
	"context"
	"fmt"
	"log"

	mmdb "repro"
	"repro/internal/dataset"
	"repro/internal/editops"
)

func main() {
	ctx := context.Background()
	db, err := mmdb.Open()
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	signs := dataset.RoadSigns(16, 48, 48, 9)
	for _, s := range signs {
		if _, err := db.InsertImageCtx(ctx, s.Name, s.Img); err != nil {
			log.Fatal(err)
		}
	}

	// Augment each sign with a "night time" variant: every palette color
	// replaced by a darkened version — the lighting-variation failure mode
	// the paper's §2 describes. Stored as a handful of Modify operations.
	darken := func(c mmdb.RGB) mmdb.RGB {
		return mmdb.RGB{R: c.R / 3, G: c.G / 3, B: c.B / 3}
	}
	for _, id := range db.Binaries() {
		img, err := db.Image(id)
		if err != nil {
			log.Fatal(err)
		}
		ops := []mmdb.Op{mmdb.Define{Region: img.Bounds()}}
		for _, c := range img.Palette() {
			ops = append(ops, mmdb.Modify{Old: c, New: darken(c)})
		}
		obj, _ := db.Get(id)
		if _, err := db.InsertEditedCtx(ctx, obj.Name+"-night", &mmdb.Sequence{BaseID: id, Ops: ops}); err != nil {
			log.Fatal(err)
		}
	}
	st, _ := db.Stats()
	fmt.Printf("database: %d signs + %d night variants\n", st.Catalog.Binaries, st.Catalog.Edited)

	// A probe: sign #3 "photographed at night" (same darkening applied).
	probeBase := signs[3]
	env := &editops.Env{}
	probeOps := []mmdb.Op{mmdb.Define{Region: probeBase.Img.Bounds()}}
	for _, c := range probeBase.Img.Palette() {
		probeOps = append(probeOps, mmdb.Modify{Old: c, New: darken(c)})
	}
	probe, err := editops.Apply(probeBase.Img, probeOps, env)
	if err != nil {
		log.Fatal(err)
	}

	// Without augmentation, the nearest binary image would be far away;
	// with it, the night variant matches exactly and the connection pulls
	// in the daytime original.
	matches, _, err := db.QueryByExampleCtx(ctx, probe, 3, mmdb.MetricIntersection)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nnearest objects to the night-time probe of %s:\n", probeBase.Name)
	var hit uint64
	for _, m := range matches {
		obj, _ := db.Get(m.ID)
		fmt.Printf("  %6d  %-8s %-20s dist=%.4f\n", m.ID, obj.Kind, obj.Name, m.Dist)
		if hit == 0 {
			hit = m.ID
		}
	}
	expanded := db.ExpandToBases([]uint64{hit})
	fmt.Printf("\nexpanding best match %d through the base connection -> %v\n", hit, expanded)
	for _, id := range expanded {
		obj, _ := db.Get(id)
		fmt.Printf("  %6d  %-8s %s\n", id, obj.Kind, obj.Name)
	}
}
