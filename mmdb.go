package mmdb

import (
	"context"
	"fmt"
	"time"

	"repro/internal/colorspace"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/editops"
	"repro/internal/query"
)

// DB is the augmented multimedia database. It is safe for concurrent use.
type DB struct {
	inner       *core.DB
	autoAugment *AugmentOptions // nil unless WithAutoAugment was given
}

// openConfig collects Open's settings: the core engine configuration plus
// facade-level behaviour that the engine does not know about.
type openConfig struct {
	core        core.Config
	autoAugment *AugmentOptions
}

// Option configures Open.
type Option func(*openConfig)

// WithPath makes the database persistent: segment files under
// path+".segments/" and a write-ahead log at path+".wal", created if
// absent.
func WithPath(path string) Option {
	return func(c *openConfig) { c.core.Path = path }
}

// WithQuantizer selects the color quantizer. Without this option new
// databases use uniform RGB with 4 divisions per channel (64 bins) and
// existing databases adopt whatever quantizer they were created with.
func WithQuantizer(q Quantizer) Option {
	return func(c *openConfig) { c.core.Quantizer = q }
}

// WithQuantizerName selects the quantizer by its persisted name, e.g.
// "rgb4", "hsv18x3x3" or "luv4x6". It returns an error through Open if the
// name does not parse.
func WithQuantizerName(name string) Option {
	return func(c *openConfig) {
		q, err := colorspace.ParseQuantizer(name)
		if err != nil {
			c.core.Quantizer = badQuantizer{name: name, err: err}
			return
		}
		c.core.Quantizer = q
	}
}

// badQuantizer defers a name-parse failure to Open, where it can be
// returned as an error rather than a panic inside an Option.
type badQuantizer struct {
	name string
	err  error
}

func (b badQuantizer) Bins() int       { return 1 }
func (b badQuantizer) Bin(RGB) int     { return 0 }
func (b badQuantizer) Name() string    { return b.name }
func (b badQuantizer) Validate() error { return b.err }

// WithBackground sets the background color used by Mutate vacancies and
// Merge gaps (default black).
func WithBackground(bg RGB) Option {
	return func(c *openConfig) { c.core.Background = bg }
}

// WithSegmentStore tunes the storage engine every persistent database
// runs on: objects live in immutable WAL-sealed segment files with bloom
// filters, and space is reclaimed by compaction (in the background with
// opts.Background). Only meaningful with WithPath. Leaving it out, or
// passing the zero SegmentOptions, selects the engine defaults: 4 MiB
// segments, unthrottled compaction, no background goroutine.
func WithSegmentStore(opts SegmentOptions) Option {
	return func(c *openConfig) { c.core.Segment = opts }
}

// WithAutoAugment makes every InsertImageCtx automatically
// generate edited versions of the new image per opts (the paper's database
// augmentation, §2), unless the individual insert opts out with
// WithNoAugment. Off by default.
func WithAutoAugment(opts AugmentOptions) Option {
	return func(c *openConfig) { c.autoAugment = &opts }
}

// Open creates an in-memory database, or opens/creates a persistent one
// when WithPath is given.
func Open(opts ...Option) (*DB, error) {
	var cfg openConfig
	for _, o := range opts {
		o(&cfg)
	}
	if bad, ok := cfg.core.Quantizer.(badQuantizer); ok {
		return nil, fmt.Errorf("mmdb: quantizer %q: %w", bad.name, bad.err)
	}
	inner, err := core.Open(cfg.core)
	if err != nil {
		return nil, err
	}
	return &DB{inner: inner, autoAugment: cfg.autoAugment}, nil
}

// Close persists (when file-backed) and releases the database.
func (db *DB) Close() error { return db.inner.Close() }

// Sync persists the catalog, fsyncs the store file, and checkpoints the
// write-ahead log (everything the log held is now in the store, so it is
// truncated).
func (db *DB) Sync() error { return db.inner.Sync() }

// WALStats reports write-ahead-log activity: fsyncs, appended and replayed
// records, current log size. ok is false for in-memory databases, which
// have no log.
func (db *DB) WALStats() (st WALStats, ok bool) { return db.inner.WALStats() }

// WALCheckpoint forces a durability checkpoint: the catalog and store are
// persisted and the write-ahead log truncated. Equivalent to Sync; exposed
// under this name for operational tooling (`esidb wal checkpoint`).
func (db *DB) WALCheckpoint() error { return db.inner.Sync() }

// WALTail serves one page of the WAL replication stream: fsync-durable
// records with LSN above the cursor, long-polling up to wait when the
// cursor is already at the durable horizon. A cursor below the checkpoint
// floor returns ErrWALTruncated, telling the follower to re-seed from a
// snapshot. In-memory databases return an error (no log to ship).
func (db *DB) WALTail(ctx context.Context, from uint64, max int, wait time.Duration) (WALTailResult, error) {
	return db.inner.WALTail(ctx, from, max, wait)
}

// ApplyRedoRecord applies one shipped WAL record to this database — the
// follower half of replication. Application is idempotent (the same redo
// machinery crash recovery uses) and the record is re-logged locally so a
// follower crash recovers from its own log.
func (db *DB) ApplyRedoRecord(ctx context.Context, payload []byte) error {
	return db.inner.ApplyRedoRecord(ctx, payload)
}

// Crash abandons the database without flushing anything: the unsealed
// memtable and the group-commit queue are dropped exactly as a process kill
// would drop them. The next Open recovers from the segment set and the
// write-ahead log. It exists for crash-recovery tests and durability drills.
func (db *DB) Crash() error { return db.inner.Crash() }

// Compact reclaims the space of deleted and superseded objects: it seals
// the memtable and merges segments online, with writes and queries
// proceeding during the merge. No-op for in-memory databases.
func (db *DB) Compact() error { return db.inner.Compact() }

// CheckStore runs the storage integrity scan (fsck): every segment's frame
// CRCs, footer, summary and bloom filter, plus the segment stack's id
// invariants. In-memory databases return a clean empty result.
func (db *DB) CheckStore() (StoreCheck, error) { return db.inner.CheckStore() }

// SegmentStats reports storage-engine activity: live segments, memtable
// occupancy, seal/compaction counts, bloom hit rates. ok is false for
// in-memory databases.
func (db *DB) SegmentStats() (st SegmentStats, ok bool) { return db.inner.SegmentStats() }

// SegmentManifest lists the database's live segments (newest last): id
// ranges, entry counts, bytes, filter sizes. ok is false for in-memory
// databases.
func (db *DB) SegmentManifest() (m SegmentManifest, ok bool) { return db.inner.SegmentManifest() }

// Quantizer returns the database's color quantizer.
func (db *DB) Quantizer() Quantizer { return db.inner.Quantizer() }

// insertConfig is the resolved form of a call's InsertOptions.
type insertConfig struct {
	id        uint64
	noAugment bool
}

// InsertOption customizes a single insert.
type InsertOption func(*insertConfig)

// WithID pins the new object's id instead of allocating one (0 keeps the
// allocator). Cluster coordinators assign ids globally and push them down so
// all shards share one id space.
func WithID(id uint64) InsertOption {
	return func(c *insertConfig) { c.id = id }
}

// WithNoAugment suppresses WithAutoAugment for this insert only — used by
// bulk restore paths (dump load) and cluster shards, which receive edited
// versions explicitly and must not generate fresh ones.
func WithNoAugment() InsertOption {
	return func(c *insertConfig) { c.noAugment = true }
}

// InsertImageCtx stores a binary image and returns its object id. The
// insert is applied and logged under the database lock; the call then waits
// for the write-ahead log's group commit to make it durable before
// returning. Cancelling ctx abandons the wait — the write may still commit.
// If the database was opened WithAutoAugment, edited versions are generated
// after the insert commits unless WithNoAugment is given.
func (db *DB) InsertImageCtx(ctx context.Context, name string, img *Image, opts ...InsertOption) (uint64, error) {
	var ic insertConfig
	for _, o := range opts {
		o(&ic)
	}
	id, err := db.inner.InsertImageCtx(ctx, ic.id, name, img)
	if err != nil {
		return 0, err
	}
	if db.autoAugment != nil && !ic.noAugment {
		if _, err := db.AugmentCtx(ctx, id, *db.autoAugment); err != nil {
			return id, fmt.Errorf("mmdb: auto-augment of %d: %w", id, err)
		}
	}
	return id, nil
}

// InsertEditedCtx stores an edited image as its operation sequence and
// classifies it for the Bound-Widening Method (widening-only or not).
// Durability semantics match InsertImageCtx. Auto-augment never applies to edited inserts.
func (db *DB) InsertEditedCtx(ctx context.Context, name string, seq *Sequence, opts ...InsertOption) (uint64, error) {
	var ic insertConfig
	for _, o := range opts {
		o(&ic)
	}
	return db.inner.InsertEditedCtx(ctx, ic.id, name, seq)
}

// AppendOpsCtx extends a stored edited image's sequence with more
// operations and re-classifies it for the Bound-Widening Method.
// Durability semantics match InsertImageCtx.
func (db *DB) AppendOpsCtx(ctx context.Context, id uint64, ops []Op) error {
	return db.inner.AppendOpsCtx(ctx, id, ops)
}

// DeleteCtx removes an object. Edited images are always deletable; binary
// images only once nothing references them (delete the edited versions
// first). Durability semantics match InsertImageCtx.
func (db *DB) DeleteCtx(ctx context.Context, id uint64) error {
	return db.inner.DeleteCtx(ctx, id)
}

// OptimizeSequence rewrites a sequence into an equivalent shorter one for
// its base image (dead Defines, no-op recolors, empty-region edits and
// identity transforms removed). The instantiated raster is unchanged;
// storage and per-query rule-walk cost shrink.
func (db *DB) OptimizeSequence(seq *Sequence) (*Sequence, error) {
	base, err := db.inner.Get(seq.BaseID)
	if err != nil {
		return nil, err
	}
	if base.Kind != KindBinary {
		return nil, fmt.Errorf("mmdb: sequence base %d is not a binary image", seq.BaseID)
	}
	return &Sequence{BaseID: seq.BaseID, Ops: editops.Optimize(seq.Ops, base.W, base.H)}, nil
}

// AugmentOptions tunes AugmentCtx.
type AugmentOptions struct {
	// PerBase is how many edited versions to generate (default 3).
	PerBase int
	// OpsPerImage is the average operations per sequence (default 4).
	OpsPerImage int
	// NonWideningFrac is the fraction of edited versions containing a
	// non-bound-widening operation (default 0).
	NonWideningFrac float64
	// Seed makes generation deterministic.
	Seed int64
}

// AugmentCtx implements the paper's database augmentation (§2): it
// generates edited versions of the given base image with realistic editing
// scripts and inserts them, returning the new ids. Merge targets for
// non-widening scripts are drawn from the other binary images already in
// the database.
func (db *DB) AugmentCtx(ctx context.Context, baseID uint64, opts AugmentOptions) ([]uint64, error) {
	img, err := db.inner.Image(baseID)
	if err != nil {
		return nil, err
	}
	var others []uint64
	for _, id := range db.inner.Binaries() {
		if id != baseID {
			others = append(others, id)
		}
	}
	aug := dataset.NewAugmenter(dataset.AugmentConfig{
		PerBase:         opts.PerBase,
		OpsPerImage:     opts.OpsPerImage,
		NonWideningFrac: opts.NonWideningFrac,
		Seed:            opts.Seed,
	})
	obj, err := db.inner.Get(baseID)
	if err != nil {
		return nil, err
	}
	var out []uint64
	for i, seq := range aug.ScriptsFor(baseID, img, others) {
		id, err := db.inner.InsertEditedCtx(ctx, 0, fmt.Sprintf("%s-edit-%d", obj.Name, i), seq)
		if err != nil {
			return nil, err
		}
		out = append(out, id)
	}
	return out, nil
}

// QueryCtx parses a textual range query ("at least 25% blue", "between 10%
// and 30% red") and answers it. Without a mode it runs from the bounds
// S-tree, or with the Bound-Widening Method under a limit (ResolveMode).
// Options select the execution mode, tracing, and a result limit: a Mode
// value is itself an option, so db.QueryCtx(ctx, text, mmdb.ModeIndexed)
// works, as does db.QueryCtx(ctx, text, mmdb.WithTrace(tr)). Cancelling ctx
// stops the candidate walk.
func (db *DB) QueryCtx(ctx context.Context, text string, opts ...QueryOption) (*Result, error) {
	return db.inner.RangeQueryTextCtx(ctx, text, opts...)
}

// RangeQueryCtx answers a structured range query; options select the
// execution mode, tracing, and result limit.
func (db *DB) RangeQueryCtx(ctx context.Context, q Range, opts ...QueryOption) (*Result, error) {
	return db.inner.RangeQueryCtx(ctx, q, opts...)
}

// QueryCompoundCtx parses and evaluates a multi-predicate query joined by a
// single connective: "at least 20% red and at most 10% blue", or "at least
// 40% green or at least 40% teal". Options select the execution mode,
// tracing, and result limit.
func (db *DB) QueryCompoundCtx(ctx context.Context, text string, opts ...QueryOption) (*Result, error) {
	return db.inner.CompoundQueryTextCtx(ctx, text, opts...)
}

// CompoundQueryCtx evaluates a structured compound query; options select
// the execution mode, tracing, and result limit.
func (db *DB) CompoundQueryCtx(ctx context.Context, c Compound, opts ...QueryOption) (*Result, error) {
	return db.inner.CompoundQueryCtx(ctx, c, opts...)
}

// QueryColorFamilyCtx runs a multi-bin range query over a named color's
// whole bin family ("blue-ish"): under fine quantizers a perceptual color
// spans several bins, and the family query constrains their summed
// percentage. Options select the execution mode, tracing, and result limit.
func (db *DB) QueryColorFamilyCtx(ctx context.Context, name string, pctMin, pctMax float64, opts ...QueryOption) (*Result, error) {
	return db.inner.RangeQueryColorFamilyCtx(ctx, name, pctMin, pctMax, opts...)
}

// RangeQueryMultiCtx evaluates a structured multi-bin range query; options
// select the execution mode, tracing, and result limit.
func (db *DB) RangeQueryMultiCtx(ctx context.Context, q MultiRange, opts ...QueryOption) (*Result, error) {
	return db.inner.RangeQueryMultiCtx(ctx, q, opts...)
}

// ColorFamily returns the histogram bins a named color's family covers
// under this database's quantizer.
func (db *DB) ColorFamily(name string) ([]int, error) {
	return colorspace.FamilyForName(name, db.inner.Quantizer())
}

// ParseQuery parses query text against this database's quantizer without
// executing it.
func (db *DB) ParseQuery(text string) (Range, error) {
	return query.ParseRange(text, db.inner.Quantizer())
}

// Explain computes a query plan without running the query: base matches,
// the edited images BWM would skip rule-free, and the operation counts each
// method would evaluate.
func (db *DB) Explain(text string) (*Plan, error) { return db.inner.ExplainText(text) }

// QueryByExampleCtx runs a k-nearest-neighbor search using a probe image:
// "find the K images most similar to this one", in (dist, id) order. The
// search runs best-first over the bounds S-tree in every mode — a Mode
// option is accepted and ignored — and instantiates only the edited images
// whose bound box could still rank. WithTrace and WithLimit apply.
func (db *DB) QueryByExampleCtx(ctx context.Context, probe *Image, k int, metric Metric, opts ...QueryOption) ([]Match, *KNNStats, error) {
	target := ExtractHistogram(probe, db.inner.Quantizer())
	return db.inner.KNNCtx(ctx, query.KNN{Target: target, K: k, Metric: metric}, opts...)
}

// KNNCtx runs a k-nearest-neighbor search from a histogram target; see
// QueryByExampleCtx for the options.
func (db *DB) KNNCtx(ctx context.Context, q KNN, opts ...QueryOption) ([]Match, *KNNStats, error) {
	return db.inner.KNNCtx(ctx, q, opts...)
}

// QueryByExamplesCtx is the multiple-query-image technique the paper
// contrasts with augmentation: each probe is searched independently and the
// rankings fused (minimum distance per object). Note the cost scales with
// the probe count — which is the paper's argument for augmentation.
func (db *DB) QueryByExamplesCtx(ctx context.Context, probes []*Image, k int, metric Metric) ([]Match, *KNNStats, error) {
	targets := make([]*Histogram, len(probes))
	for i, p := range probes {
		targets[i] = ExtractHistogram(p, db.inner.Quantizer())
	}
	return db.inner.KNNMultiCtx(ctx, targets, k, metric)
}

// WithinDistanceCtx returns every image within dist of the probe under the
// metric, with bound-based pruning of edited images.
func (db *DB) WithinDistanceCtx(ctx context.Context, probe *Image, dist float64, metric Metric) ([]Match, *KNNStats, error) {
	target := ExtractHistogram(probe, db.inner.Quantizer())
	return db.inner.WithinDistanceCtx(ctx, target, dist, metric)
}

// KNNBinary ranks only binary images, by exact histogram distance.
func (db *DB) KNNBinary(q KNN) ([]Match, error) { return db.inner.KNNBinary(q) }

// BuildBICIndex builds a Border/Interior Classification index over the
// binary images — an alternative, structure-aware color signature
// (Stehling et al., the paper's reference [21]). Snapshot semantics:
// rebuild after inserts.
func (db *DB) BuildBICIndex() (*BICIndex, error) { return db.inner.BICIndex() }

// ExpandToBases adds the base image of every edited match — the paper's
// connection that returns the original x whenever an edited op(x) matches.
func (db *DB) ExpandToBases(ids []uint64) []uint64 { return db.inner.ExpandToBases(ids) }

// Image materializes any object: binary rasters directly, edited images by
// executing their sequence.
func (db *DB) Image(id uint64) (*Image, error) { return db.inner.Image(id) }

// Get returns an object's catalog entry.
func (db *DB) Get(id uint64) (*Object, error) { return db.inner.Get(id) }

// Objects returns the catalog entries of ids, in that order, from one
// batched read. An id deleted since the caller obtained it is skipped, so
// the result may be shorter than ids.
func (db *DB) Objects(ids []uint64) []*Object { return db.inner.Objects(ids) }

// Binaries returns the binary image ids in insertion order.
func (db *DB) Binaries() []uint64 { return db.inner.Binaries() }

// EditedIDs returns the edited image ids in insertion order.
func (db *DB) EditedIDs() []uint64 { return db.inner.EditedIDs() }

// EditedOf returns the edited images derived from a base image.
func (db *DB) EditedOf(baseID uint64) []uint64 { return db.inner.EditedOf(baseID) }

// Bounds computes the rule-engine bounds of an edited image for one bin.
func (db *DB) Bounds(id uint64, bin int) (Bounds, error) { return db.inner.Bounds(id, bin) }

// BinForColor resolves a color name ("blue") to its histogram bin.
func (db *DB) BinForColor(name string) (int, error) {
	return colorspace.BinForName(name, db.inner.Quantizer())
}

// Stats returns database statistics (catalog breakdown, BWM component
// sizes, store occupancy).
func (db *DB) Stats() (Stats, error) { return db.inner.Stats() }

// StorageFootprint reports (raster bytes, sequence bytes): the space cost
// of binary images versus the edit-sequence representation.
func (db *DB) StorageFootprint() (binaryBytes, editedBytes int64, err error) {
	return db.inner.StorageFootprint()
}

// ColorNames returns the query color vocabulary.
func ColorNames() []string { return colorspace.ColorNames() }

// LookupColor resolves a color name to its RGB value.
func LookupColor(name string) (RGB, bool) { return colorspace.LookupColor(name) }
