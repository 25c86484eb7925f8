// Package core implements the augmented multimedia database itself: a DB
// that stores binary images conventionally and edited images as operation
// sequences, classifies every edited image as widening-only or not (its
// place in the paper's BWM structure), keeps the bounds S-tree maintained
// on insert, answers color range queries in several execution modes (BWM,
// RBM, S-tree indexed, instantiation ground truth), answers k-NN similarity
// queries with bound-based pruning, and persists everything through the
// segmented storage engine behind a write-ahead log.
//
// Concurrency model: any number of readers (queries) run concurrently with
// one writer (insert/delete/compact). Queries see a consistent snapshot of
// the id lists taken at their start; objects deleted mid-query are silently
// skipped, and objects inserted mid-query may or may not be visible —
// read-committed semantics, per-object atomicity.
package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/colorspace"
	"repro/internal/editops"
	"repro/internal/histogram"
	"repro/internal/imaging"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/rbm"
	"repro/internal/rules"
	"repro/internal/store"
	"repro/internal/store/segment"
	"repro/internal/stree"
)

// Mode selects the range-query execution strategy. The zero Mode is unset:
// dispatch settles it by the page (ResolveMode), so a caller that names no
// mode gets the scan that stops at its page or the tree that answers a
// whole query, whichever its limit asks for.
type Mode uint8

const (
	// ModeBWM uses the paper's Bound-Widening Method — what an unset mode
	// runs when a limit bounds the page.
	ModeBWM Mode = iota + 1
	// ModeRBM uses the Rule-Based Method baseline (§3).
	ModeRBM
	// ModeInstantiate materializes every edited image and matches exact
	// histograms — the expensive ground truth the paper's methods avoid
	// (ablation C). Unlike the bound-based modes it returns no false
	// positives.
	ModeInstantiate
	// ModeIndexed answers from the bounds S-tree (internal/stree): a
	// bulk-loaded tree over per-candidate [min,max] percentage boxes whose
	// inner nodes hold their subtree's union box, so a query descends only
	// into intersecting nodes and admits fully contained subtrees without
	// per-candidate rule walks — the sublinear strategy, and the one
	// precomputed-bounds design point (ablation G). Results are identical to
	// RBM/BWM. It is what an unset mode runs when the whole answer is
	// wanted.
	ModeIndexed
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeBWM:
		return "bwm"
	case ModeRBM:
		return "rbm"
	case ModeInstantiate:
		return "instantiate"
	case ModeIndexed:
		return "indexed"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// AllModes returns every execution mode in declaration order. This is the
// single registration point new modes must join (the per-mode metric maps,
// ParseMode, and the CLI/server mode lists all derive from it), so adding a
// mode here is what makes it reachable everywhere.
func AllModes() []Mode {
	out := make([]Mode, len(allModes))
	copy(out, allModes)
	return out
}

// ModeNames returns the parseable mode strings in declaration order — the
// list CLI help and error messages should print.
func ModeNames() []string {
	out := make([]string, len(allModes))
	for i, m := range allModes {
		out[i] = m.String()
	}
	return out
}

// ParseMode resolves a mode string (one of ModeNames) to its Mode. The
// empty string is the unset zero Mode, which ResolveMode settles per query.
// Unknown strings fail with an error that enumerates every valid name, so
// callers never hand-maintain the list.
func ParseMode(s string) (Mode, error) {
	if s == "" {
		return 0, nil
	}
	for _, m := range allModes {
		if s == m.String() {
			return m, nil
		}
	}
	return 0, fmt.Errorf("core: unknown mode %q (valid: %s)", s, strings.Join(ModeNames(), ", "))
}

// ResolveMode is the default rule, the one dispatch applies before anything
// is recorded: a named mode stands, and the unset zero Mode becomes ModeBWM
// when limit > 0 — the windowed scan stops at the page's last id — and
// ModeIndexed otherwise, because a whole answer costs the scan every
// candidate while the S-tree prunes and admits whole subtrees by box.
func ResolveMode(m Mode, limit int) Mode {
	switch {
	case m != 0:
		return m
	case limit > 0:
		return ModeBWM
	}
	return ModeIndexed
}

// Process-wide per-mode query metrics: a latency histogram and a count per
// execution mode, resolved once at package init so the query path does one
// map read plus atomics.
var (
	allModes  = []Mode{ModeBWM, ModeRBM, ModeInstantiate, ModeIndexed}
	mQueryDur = func() map[Mode]*obs.Histogram {
		out := make(map[Mode]*obs.Histogram, len(allModes))
		for _, m := range allModes {
			out[m] = obs.Default().Histogram(fmt.Sprintf("esidb_query_seconds{mode=%q}", m), obs.DefBuckets)
		}
		return out
	}()
	mQueryCount = func() map[Mode]*obs.Counter {
		out := make(map[Mode]*obs.Counter, len(allModes))
		for _, m := range allModes {
			out[m] = obs.Default().Counter(fmt.Sprintf("esidb_queries_total{mode=%q}", m))
		}
		return out
	}()
)

// Config configures a database.
type Config struct {
	// Quantizer maps colors to histogram bins; nil means UniformRGB(4)
	// (64 bins).
	Quantizer colorspace.Quantizer
	// Background is the fill color for Mutate vacancies and Merge gaps.
	Background imaging.RGB
	// Path persists the database: objects live in immutable segment files
	// under Path+".segments/" and the write-ahead log at Path+".wal".
	// Empty means in-memory.
	Path string
	// WAL is the write-ahead log's file seam when Path is set (the log
	// lives at Path+".wal"); crash tests inject faults through it. The zero
	// value opens the real file.
	WAL store.WALOptions
	// Segment tunes the storage engine when Path is set (see
	// internal/store/segment); the zero value gets the engine defaults.
	Segment segment.Options
}

// DB is the augmented image database. All methods are safe for concurrent
// use.
type DB struct {
	mu  sync.RWMutex
	cfg Config

	cat    *catalog.Catalog
	engine *rules.Engine

	// sidx is the bounds S-tree behind ModeIndexed. It is built lazily by
	// the first indexed query (sidxReady flips true under db.mu) and from
	// then on maintained incrementally by every write path; reads are
	// lock-free snapshots, mutations happen under db.mu like every other
	// index. See indexed.go.
	sidx      *stree.Tree
	sidxReady atomic.Bool

	seg     *segment.Engine // nil when in-memory
	wal     *store.WAL      // nil when in-memory
	rasters map[uint64]*imaging.Image

	closed bool
}

// Open creates or opens a database. With an empty Path the database lives
// in memory; otherwise the segment set is created if absent and reloaded if
// present, and the write-ahead log is replayed over it. A nil cfg.Quantizer
// means "use the default (uniform RGB, 64 bins) for new databases, adopt
// whatever the store was built with for existing ones"; an explicitly
// configured quantizer must match the store's (ErrIncompatible otherwise).
// A path holding a store this build no longer reads fails with
// ErrLegacyStore before anything is written.
func Open(cfg Config) (*DB, error) {
	defaulted := cfg.Quantizer == nil
	if defaulted {
		cfg.Quantizer = colorspace.NewUniformRGB(4)
	}
	if cfg.Path == "" {
		return newDB(cfg), nil
	}
	if err := checkPathFile(cfg.Path); err != nil {
		return nil, err
	}
	seg, err := segment.Open(SegmentDir(cfg.Path), cfg.Segment)
	if err != nil {
		if errors.Is(err, segment.ErrLegacyFormat) {
			return nil, legacyStoreError(SegmentDir(cfg.Path), err.Error())
		}
		return nil, err
	}
	db := newDB(cfg)
	db.seg = seg
	err = db.loadFromSegments()
	if defaulted {
		var mismatch *quantizerMismatchError
		if errors.As(err, &mismatch) {
			// Adopt the stored quantizer: rebuild the empty in-memory
			// structures around it and reload.
			q, perr := colorspace.ParseQuantizer(mismatch.stored)
			if perr != nil {
				seg.Close()
				return nil, fmt.Errorf("%w: %v", ErrIncompatible, perr)
			}
			cfg.Quantizer = q
			db = newDB(cfg)
			db.seg = seg
			err = db.loadFromSegments()
		}
	}
	if err != nil {
		seg.Close()
		return nil, err
	}
	// The segment set holds everything sealed before the last checkpoint;
	// now redo every acknowledged mutation since then from the write-ahead
	// log.
	wal, recs, err := store.OpenWAL(cfg.Path+".wal", cfg.WAL)
	if err != nil {
		seg.Close()
		return nil, err
	}
	db.wal = wal
	db, err = db.replayWAL(recs, defaulted)
	if err == nil {
		// Stage the configuration entry only after replay: a pre-replay
		// meta would pin the defaulted quantizer before a logged config
		// record had the chance to adopt the store's real one.
		err = db.segEnsureMeta()
	}
	if err != nil {
		wal.Abandon()
		seg.Close()
		return nil, err
	}
	return db, nil
}

// newDB builds the in-memory structures for a resolved configuration.
func newDB(cfg Config) *DB {
	db := &DB{
		cfg:     cfg,
		cat:     catalog.New(),
		rasters: make(map[uint64]*imaging.Image),
		sidx:    stree.New(cfg.Quantizer.Bins(), sidxFanout),
	}
	db.engine = rules.NewEngine(cfg.Quantizer, cfg.Background, db.cat)
	return db
}

// Quantizer returns the configured quantizer.
func (db *DB) Quantizer() colorspace.Quantizer { return db.cfg.Quantizer }

// Background returns the configured background color.
func (db *DB) Background() imaging.RGB { return db.cfg.Background }

// Close seals the memtable into the segment set, truncates the write-ahead
// log — a clean shutdown is a checkpoint — and releases the files. The DB
// is unusable afterwards.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	if db.seg == nil {
		return nil // in-memory: nothing to flush or release
	}
	err := db.persistDurableLocked()
	if err == nil {
		err = db.wal.Checkpoint()
	}
	if cerr := db.wal.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if cerr := db.seg.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// Sync seals the memtable into the segment set and checkpoints the
// write-ahead log (everything the log guarded is now in a segment, so the
// log restarts empty). A no-op in memory mode.
func (db *DB) Sync() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return store.ErrClosed
	}
	if db.seg == nil {
		return nil // in-memory
	}
	if err := db.persistDurableLocked(); err != nil {
		return err
	}
	return db.walCheckpointLocked()
}

// InsertImageCtx stores a binary image: the raster goes to the storage
// engine (or only the in-memory map), the histogram is extracted into the
// catalog and the S-tree (once built) gains a point box. id pins the object
// id (0 means "allocate"); a cluster coordinator assigns ids globally and
// pushes them down so every shard shares one id space, and a taken id fails
// with catalog.ErrIDTaken.
//
// The insert is applied, logged to the write-ahead log, and acknowledged
// only once the log record is fsynced. Concurrent inserts share fsyncs via
// group commit. ctx bounds only the durability wait: on cancellation the
// insert is already applied and its record already written — it may still
// commit — so the caller must treat the write's fate as unknown.
func (db *DB) InsertImageCtx(ctx context.Context, id uint64, name string, img *imaging.Image) (uint64, error) {
	if img == nil || img.Size() == 0 {
		return 0, errors.New("core: cannot insert an empty image")
	}
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return 0, store.ErrClosed
	}
	id, err := db.applyInsertBinaryLocked(id, name, img)
	if err != nil {
		db.mu.Unlock()
		return 0, err
	}
	tk, err := db.walAppendLocked(ctx, func() []byte { return encodeWALInsertBinary(id, name, img) })
	db.mu.Unlock()
	if err != nil {
		return 0, err
	}
	return id, tk.Wait(ctx)
}

// applyInsertBinaryLocked performs the in-memory and store side of a
// binary insert. Shared by the public write path and WAL replay; caller
// holds db.mu.
func (db *DB) applyInsertBinaryLocked(id uint64, name string, img *imaging.Image) (uint64, error) {
	hist := histogram.Extract(img, db.cfg.Quantizer)
	id, err := db.cat.AddBinaryWithID(id, name, img.W, img.H, hist)
	if err != nil {
		return 0, err
	}
	db.rasters[id] = img.Clone()
	if err := db.segPutBinaryLocked(id, name, img, hist); err != nil {
		return 0, err
	}
	db.sidxInsertBinaryLocked(id, hist)
	return id, nil
}

// InsertEditedCtx stores an edited image as its sequence. The base and all
// Merge targets must already be inserted binary images. The sequence is
// classified (widening or not), which places it in the BWM structure per
// the paper's Fig. 1. id and the durability contract are InsertImageCtx's.
func (db *DB) InsertEditedCtx(ctx context.Context, id uint64, name string, seq *editops.Sequence) (uint64, error) {
	if seq == nil {
		return 0, errors.New("core: nil sequence")
	}
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return 0, store.ErrClosed
	}
	id, err := db.applyInsertEditedLocked(id, name, seq)
	if err != nil {
		db.mu.Unlock()
		return 0, err
	}
	tk, err := db.walAppendLocked(ctx, func() []byte { return encodeWALInsertEdited(id, name, seq) })
	db.mu.Unlock()
	if err != nil {
		return 0, err
	}
	return id, tk.Wait(ctx)
}

// applyInsertEditedLocked performs the in-memory side of an edited insert.
// Shared by the public write path and WAL replay; caller holds db.mu.
func (db *DB) applyInsertEditedLocked(id uint64, name string, seq *editops.Sequence) (uint64, error) {
	base, err := db.cat.Binary(seq.BaseID)
	if err != nil {
		return 0, err
	}
	widening := rules.SequenceIsWideningFor(seq.Ops, base.W, base.H)
	id, err = db.cat.AddEditedWithID(id, name, seq.Clone(), widening)
	if err != nil {
		return 0, err
	}
	if err := db.segPutEditedLocked(id, name, widening, seq); err != nil {
		return 0, err
	}
	db.sidxUpsertEditedLocked(id)
	return id, nil
}

// AppendOpsCtx extends a stored edited image's sequence with more
// operations — the editing-session update path. The sequence is
// re-classified from scratch and its S-tree bounds box replaced. The
// durability contract is InsertImageCtx's; the WAL record carries the full
// post-append sequence, so recovery needs no pre-state.
func (db *DB) AppendOpsCtx(ctx context.Context, id uint64, ops []editops.Op) error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return store.ErrClosed
	}
	obj, err := db.cat.Edited(id)
	if err != nil {
		db.mu.Unlock()
		return err
	}
	newSeq := obj.Seq.Clone()
	newSeq.Ops = append(newSeq.Ops, ops...)
	if err := db.applySetSequenceLocked(id, newSeq); err != nil {
		db.mu.Unlock()
		return err
	}
	tk, err := db.walAppendLocked(ctx, func() []byte { return encodeWALUpdateSeq(id, newSeq) })
	db.mu.Unlock()
	if err != nil {
		return err
	}
	return tk.Wait(ctx)
}

// applySetSequenceLocked replaces an edited image's sequence wholesale:
// re-classify and replace the S-tree bounds box. Shared by AppendOpsCtx and
// WAL replay; caller holds db.mu.
func (db *DB) applySetSequenceLocked(id uint64, newSeq *editops.Sequence) error {
	obj, err := db.cat.Edited(id)
	if err != nil {
		return err
	}
	base, err := db.cat.Binary(newSeq.BaseID)
	if err != nil {
		return err
	}
	widening := rules.SequenceIsWideningFor(newSeq.Ops, base.W, base.H)
	if err := db.cat.UpdateEdited(id, newSeq, widening); err != nil {
		return err
	}
	if err := db.segPutEditedLocked(id, obj.Name, widening, newSeq); err != nil {
		return err
	}
	db.sidxUpsertEditedLocked(id)
	return nil
}

// DeleteCtx removes an object. Edited images are always deletable; a binary
// image is deletable only once no edited image references it as base or
// Merge target (catalog.ErrInUse otherwise). For persistent databases a
// tombstone shadows the object until compaction reclaims its bytes. The
// durability contract is InsertImageCtx's.
func (db *DB) DeleteCtx(ctx context.Context, id uint64) error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return store.ErrClosed
	}
	if err := db.applyDeleteLocked(id); err != nil {
		db.mu.Unlock()
		return err
	}
	tk, err := db.walAppendLocked(ctx, func() []byte { return encodeWALDelete(id) })
	db.mu.Unlock()
	if err != nil {
		return err
	}
	return tk.Wait(ctx)
}

// applyDeleteLocked performs the in-memory and store side of a delete.
// Shared by the public write path and WAL replay; caller holds db.mu.
func (db *DB) applyDeleteLocked(id uint64) error {
	obj, err := db.cat.Get(id)
	if err != nil {
		return err
	}
	if err := db.cat.Delete(id); err != nil {
		return err
	}
	if obj.Kind == catalog.KindBinary {
		delete(db.rasters, id)
	}
	db.sidxDeleteLocked(id)
	return db.segDeleteLocked(id)
}

// Get returns an object's catalog entry.
func (db *DB) Get(id uint64) (*catalog.Object, error) { return db.cat.Get(id) }

// Objects returns the catalog entries of ids in one batched read, skipping
// ids deleted since they were chosen (catalog.Objects).
func (db *DB) Objects(ids []uint64) []*catalog.Object { return db.cat.Objects(ids) }

// Binaries returns the binary image ids in insertion order.
func (db *DB) Binaries() []uint64 { return db.cat.Binaries() }

// EditedIDs returns the edited image ids in insertion order.
func (db *DB) EditedIDs() []uint64 { return db.cat.EditedIDs() }

// EditedOf returns the edited images derived from a base image.
func (db *DB) EditedOf(baseID uint64) []uint64 { return db.cat.EditedOf(baseID) }

// binaryRaster returns a binary image's pixels, reading through the storage
// engine when not cached. Callers must not mutate the result.
func (db *DB) binaryRaster(id uint64) (*imaging.Image, error) {
	db.mu.RLock()
	img, ok := db.rasters[id]
	db.mu.RUnlock()
	if ok {
		return img, nil
	}
	img, err := db.segRaster(id)
	if err != nil {
		return nil, err
	}
	db.mu.Lock()
	db.rasters[id] = img
	db.mu.Unlock()
	return img, nil
}

// env returns the instantiation environment bound to this database.
func (db *DB) env() *editops.Env {
	return &editops.Env{Background: db.cfg.Background, ResolveImage: db.binaryRaster}
}

// Image materializes any object: binary images come from the raster store,
// edited images are instantiated by executing their sequence.
func (db *DB) Image(id uint64) (*imaging.Image, error) {
	obj, err := db.cat.Get(id)
	if err != nil {
		return nil, err
	}
	if obj.Kind == catalog.KindBinary {
		img, err := db.binaryRaster(id)
		if err != nil {
			return nil, err
		}
		return img.Clone(), nil
	}
	return editops.ApplySequence(obj.Seq, db.env())
}

// Bounds computes the rule-engine bounds of an edited image for one bin —
// the primitive the paper's query processing is built on, exposed for
// inspection tools.
func (db *DB) Bounds(id uint64, bin int) (rules.Bounds, error) {
	obj, err := db.cat.Edited(id)
	if err != nil {
		return rules.Bounds{}, err
	}
	base, err := db.cat.Binary(obj.Seq.BaseID)
	if err != nil {
		return rules.Bounds{}, err
	}
	return db.engine.BoundsForBin(base.Hist, base.W, base.H, obj.Seq.Ops, bin)
}

// RangeQueryCtx answers a color range query: ctx flows into the candidate
// walk (cancellation stops it), and options select the execution mode,
// tracing, and result limit (a bare Mode value is itself an option). With
// WithTrace, per-phase timings and decision counts are recorded into the
// trace; latency and query-count metrics are always recorded into the
// process registry.
func (db *DB) RangeQueryCtx(ctx context.Context, q query.Range, opts ...QueryOption) (*rbm.Result, error) {
	cfg := buildQueryConfig(opts)
	if err := q.Validate(db.cfg.Quantizer.Bins()); err != nil {
		return nil, err
	}
	return db.dispatch(ctx, cfg, []pagedTerm{db.rangeTerm(q)}, query.And)
}

// RangeQueryTextCtx parses a textual range query ("at least 25% blue") and
// executes it under ctx; options select the execution mode, tracing, and
// result limit.
func (db *DB) RangeQueryTextCtx(ctx context.Context, text string, opts ...QueryOption) (*rbm.Result, error) {
	q, err := query.ParseRange(text, db.cfg.Quantizer)
	if err != nil {
		return nil, err
	}
	return db.RangeQueryCtx(ctx, q, opts...)
}

// instantiateMatches materializes one edited image and applies the exact
// histogram test — ModeInstantiate's per-candidate verdict.
func (db *DB) instantiateMatches(obj *catalog.Object, env *editops.Env, exact func(*histogram.Histogram) bool, st *rbm.Stats) (bool, error) {
	img, err := editops.ApplySequence(obj.Seq, env)
	if err != nil {
		// A raster can only be missing once its dependents are gone: the
		// candidate itself was deleted since it was listed.
		if _, gone := db.cat.Get(obj.ID); errors.Is(err, catalog.ErrNotFound) && errors.Is(gone, catalog.ErrNotFound) {
			return false, nil
		}
		return false, fmt.Errorf("core: instantiate %d: %w", obj.ID, err)
	}
	st.EditedWalked++
	st.Instantiated++
	if img.Size() == 0 {
		return false, nil
	}
	return exact(histogram.Extract(img, db.cfg.Quantizer)), nil
}

// CompoundQueryCtx evaluates a multi-predicate query: every candidate gets
// its terms' verdicts in order, combined with short-circuit (And stops at
// the first miss, Or at the first match), so Stats count the per-candidate
// work done rather than one scan per term. ModeIndexed does the same per
// S-tree item in one descent whose node tests combine the terms' box tests
// by the same connective. Because every term's verdict is mode-equivalent
// (BWM ≡ RBM ≡ indexed), the answers are too.
// ctx flows into the candidate walk; options select the execution mode,
// tracing, and result limit.
func (db *DB) CompoundQueryCtx(ctx context.Context, c query.Compound, opts ...QueryOption) (*rbm.Result, error) {
	cfg := buildQueryConfig(opts)
	if err := c.Validate(db.cfg.Quantizer.Bins()); err != nil {
		return nil, err
	}
	terms := make([]pagedTerm, len(c.Terms))
	for i, q := range c.Terms {
		terms[i] = db.rangeTerm(q)
	}
	return db.dispatch(ctx, cfg, terms, c.Conn)
}

// CompoundQueryTextCtx parses and evaluates a textual compound query ("at
// least 20% red and at most 10% blue") under ctx, recording the parse as
// its own phase when tracing.
func (db *DB) CompoundQueryTextCtx(ctx context.Context, text string, opts ...QueryOption) (*rbm.Result, error) {
	cfg := buildQueryConfig(opts)
	done := cfg.Trace.Phase("parse")
	c, err := query.ParseCompound(text, db.cfg.Quantizer)
	done()
	if err != nil {
		return nil, err
	}
	return db.CompoundQueryCtx(ctx, c, opts...)
}

// ExpandToBases augments a result id set with the base image of every
// edited match — the paper's §2 connection between op(x) and x, which lets
// the system return x even when only op(x)'s features matched.
func (db *DB) ExpandToBases(ids []uint64) []uint64 {
	seen := make(map[uint64]bool, len(ids))
	out := make([]uint64, 0, len(ids))
	add := func(id uint64) {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	for _, id := range ids {
		add(id)
		if obj, err := db.cat.Edited(id); err == nil {
			add(obj.Seq.BaseID)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
