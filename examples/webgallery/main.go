// Webgallery: the database as a service. Starts the HTTP server on a local
// port, then drives it purely through the Go client — remote inserts,
// augmentation, compound color queries and query-by-example — the way a
// gallery front-end would use ESIDB without linking the engine.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"

	mmdb "repro"
	"repro/internal/client"
	"repro/internal/dataset"
	"repro/internal/server"
)

func main() {
	// The "database server" side: an in-memory DB behind the HTTP handler.
	db, err := mmdb.Open()
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: server.New(db)}
	go srv.Serve(ln)
	defer srv.Close()
	baseURL := "http://" + ln.Addr().String()
	fmt.Printf("gallery server on %s\n\n", baseURL)

	// The "front-end" side: everything below talks HTTP only.
	c := client.New(baseURL, nil)
	ctx := context.Background()

	// Upload a small gallery of road signs.
	signs := dataset.RoadSigns(8, 48, 48, 21)
	var firstID uint64
	for _, s := range signs {
		obj, err := c.InsertImageCtx(ctx, 0, s.Name, s.Img)
		if err != nil {
			log.Fatal(err)
		}
		if firstID == 0 {
			firstID = obj.ID
		}
	}
	fmt.Printf("uploaded %d signs\n", len(signs))

	// Ask the server to augment the first sign with edited variants.
	edited, err := c.Augment(ctx, firstID, mmdb.AugmentOptions{PerBase: 3, OpsPerImage: 3, Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server-side augmentation of sign %d -> edited ids %v\n", firstID, edited)

	// Compound color query over the wire.
	res, err := c.QueryCtx(ctx, "at least 15% red or at least 15% blue", "bwm", false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n\"at least 15%% red or at least 15%% blue\" -> %d matches "+
		"(%d rule evaluations, %d edited skipped)\n",
		len(res.IDs), res.Stats.OpsEvaluated, res.Stats.EditedSkipped)
	for _, obj := range res.Objects[:min(4, len(res.Objects))] {
		fmt.Printf("  %6d  %-8s %s\n", obj.ID, obj.Kind, obj.Name)
	}

	// Query by example: a fresh sign photo, uploaded as the probe body.
	probe := dataset.RoadSigns(1, 48, 48, 99)[0]
	matches, err := c.SimilarCtx(ctx, probe.Img, 3, "intersection")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n3 nearest neighbors of a new %s probe:\n", probe.Name)
	for _, m := range matches {
		obj, err := c.GetCtx(ctx, m.ID)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %6d  %-8s %-20s dist=%.4f\n", m.ID, obj.Kind, obj.Name, m.Dist)
	}

	// Download a server-side instantiation of one edited image.
	img, err := c.ImageCtx(ctx, edited[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmaterialized edited image %d over HTTP: %dx%d pixels\n", edited[0], img.W, img.H)

	st, err := c.StatsCtx(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server stats: %d images (%d binary, %d edited)\n",
		st.Catalog.Images, st.Catalog.Binaries, st.Catalog.Edited)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
