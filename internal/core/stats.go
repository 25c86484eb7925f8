package core

import (
	"repro/internal/catalog"
	"repro/internal/editops"
	"repro/internal/store/segment"
)

// DBStats aggregates the database's occupancy statistics: the catalog
// breakdown the paper's Table 2 reports, the BWM component sizes, and (for
// persistent databases) the storage-engine statistics. The BWM sizes are
// read off the catalog: an edited image's Widening flag is its component.
type DBStats struct {
	Catalog catalog.Stats
	// BWMClusters is the number of Main Component clusters (one per binary
	// image).
	BWMClusters int
	// BWMClustered is the number of edited images in Main Component
	// clusters (widening-only images).
	BWMClustered int
	// BWMUnclassified is the number of edited images in the Unclassified
	// Component (those with a non-widening operation).
	BWMUnclassified int
	// Segment holds storage-engine statistics; nil for in-memory
	// databases.
	Segment *segment.EngineStats `json:",omitempty"`
	// Persistent reports whether the database is backed by files.
	Persistent bool
}

// Stats collects current statistics.
func (db *DB) Stats() (DBStats, error) {
	cs := db.cat.Stats()
	st := DBStats{Catalog: cs, BWMClusters: cs.Binaries, BWMClustered: cs.WideningOnly, BWMUnclassified: cs.NonWidening}
	if s, ok := db.SegmentStats(); ok {
		st.Persistent = true
		st.Segment = &s
	}
	return st, nil
}

// StorageFootprint estimates the bytes needed to store the database's
// objects: rasters at 3 bytes per pixel for binary images, encoded sequence
// length for edited images. It quantifies the space saving of the
// edit-sequence representation (paper §2).
func (db *DB) StorageFootprint() (binaryBytes, editedBytes int64, err error) {
	for _, id := range db.cat.Binaries() {
		obj, err := db.cat.Binary(id)
		if err != nil {
			return 0, 0, err
		}
		binaryBytes += int64(3 * obj.W * obj.H)
	}
	for _, id := range db.cat.EditedIDs() {
		obj, err := db.cat.Edited(id)
		if err != nil {
			return 0, 0, err
		}
		editedBytes += int64(len(editops.EncodeBinary(obj.Seq)))
	}
	return binaryBytes, editedBytes, nil
}

// CheckStore runs the storage integrity scan (fsck): every sealed segment's
// frame CRCs, footer, summary and bloom consistency, plus the stack's id
// invariants. In-memory databases return a clean empty result.
func (db *DB) CheckStore() (segment.CheckResult, error) {
	if db.seg == nil {
		return segment.CheckResult{}, nil // in-memory
	}
	return db.seg.Check()
}
