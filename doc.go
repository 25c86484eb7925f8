// Package mmdb is an embedded multimedia database for color-based image
// retrieval over augmented image collections, reproducing Brown &
// Gruenwald, "Speeding up Color-Based Retrieval in Multimedia Database
// Management Systems that Store Images as Sequences of Editing Operations"
// (ICDE 2006).
//
// The database stores two kinds of objects: binary images (rasters, with a
// color-histogram signature extracted at insert) and edited images, stored
// not as pixels but as a reference to a base image plus a sequence of
// editing operations (Define, Combine, Modify, Mutate, Merge). Color range
// queries — "retrieve all images that are at least 25% blue" — are answered
// without instantiating edited images, using per-operation rules that bound
// each image's possible histogram (the Rule-Based Method), accelerated by
// the paper's Bound-Widening Method data structure, which skips rule
// evaluation entirely for edited images whose operations are all
// bound-widening and whose base image already satisfies the query.
//
// # Quickstart
//
//	ctx := context.Background()
//	db, err := mmdb.Open()                            // in-memory database
//	id, err := db.InsertImageCtx(ctx, "photo", img)   // raster + histogram
//	seq := &mmdb.Sequence{BaseID: id, Ops: []mmdb.Op{
//		mmdb.Modify{Old: red, New: blue},
//	}}
//	eid, err := db.InsertEditedCtx(ctx, "photo-blue", seq)
//	res, err := db.QueryCtx(ctx, "at least 25% blue") // S-tree (indexed) execution
//	res, err = db.QueryCtx(ctx, "at least 25% blue", mmdb.ModeRBM, mmdb.WithLimit(20))
//
// Every operation has one entry point, which takes the caller's ctx; query
// options (a Mode, WithTrace, WithLimit, WithAfter) replace positional
// arguments. Open with WithPath for a persistent database: immutable
// segment files behind a write-ahead log.
// See the examples directory for complete programs.
package mmdb
