// Package core implements the augmented multimedia database itself: a DB
// that stores binary images conventionally and edited images as operation
// sequences, keeps the BWM data structure and the bounds S-tree maintained
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
	"time"

	"repro/internal/bwm"
	"repro/internal/catalog"
	"repro/internal/colorspace"
	"repro/internal/editops"
	"repro/internal/exec"
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

// Mode selects the range-query execution strategy.
type Mode uint8

const (
	// ModeBWM uses the paper's Bound-Widening Method (the default).
	ModeBWM Mode = iota
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
	// RBM/BWM.
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
// empty string means the default, ModeBWM. Unknown strings fail with an
// error that enumerates every valid name, so callers never hand-maintain
// the list.
func ParseMode(s string) (Mode, error) {
	if s == "" {
		return ModeBWM, nil
	}
	for _, m := range allModes {
		if s == m.String() {
			return m, nil
		}
	}
	return 0, fmt.Errorf("core: unknown mode %q (valid: %s)", s, strings.Join(ModeNames(), ", "))
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
	// mFastPathAdmitted resolves to the same counter object the bwm package
	// increments (the registry is get-or-create by name); core bumps it on
	// the multi-bin fast path.
	mFastPathAdmitted = obs.Default().Counter("esidb_bwm_fastpath_admitted_total")
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
	// Parallelism caps the candidate-evaluation worker pool: 0 (auto)
	// scales with GOMAXPROCS, 1 forces the serial walk, n > 1 uses exactly
	// n workers. Results are identical at every setting; only wall time
	// and the parallel_* trace counters change. Adjustable at runtime via
	// DB.SetParallelism.
	Parallelism int
	// WAL tunes the write-ahead log's group-commit behaviour when Path is
	// set (the log lives at Path+".wal"). The zero value flushes as soon as
	// the flusher is free and batches up to store.DefaultWALMaxBatch
	// commits per fsync.
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
	// par is the live Parallelism knob (atomic so queries read it without
	// the DB lock and tests/operators can retune a running database).
	par atomic.Int32

	cat     *catalog.Catalog
	engine  *rules.Engine
	idx     *bwm.Index
	rbmProc *rbm.Processor
	bwmProc *bwm.Processor

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
	// Restore the observed-statistics distributions the last clean shutdown
	// snapshotted, so the planner's input survives restarts. Best-effort: a
	// missing or corrupt snapshot just starts the distributions cold.
	_ = obs.DefaultStats().LoadFile(StatsSnapshotPath(cfg.Path))
	return db, nil
}

// StatsSnapshotPath is where a database at path persists the process-wide
// observed-statistics recorder (obs.DefaultStats) across restarts. The
// recorder is process-global — one snapshot file reflects every database
// the process queried — which is the right grain for the planner: it wants
// the workload the process serves, and a server process serves one DB.
func StatsSnapshotPath(path string) string { return path + ".stats.json" }

// newDB builds the in-memory structures for a resolved configuration.
func newDB(cfg Config) *DB {
	db := &DB{
		cfg:     cfg,
		cat:     catalog.New(),
		idx:     bwm.NewIndex(),
		rasters: make(map[uint64]*imaging.Image),
		sidx:    stree.New(cfg.Quantizer.Bins(), sidxFanout),
	}
	db.engine = rules.NewEngine(cfg.Quantizer, cfg.Background, db.cat)
	db.rbmProc = rbm.New(db.cat, db.engine)
	db.bwmProc = bwm.New(db.cat, db.engine, db.idx)
	db.par.Store(int32(cfg.Parallelism))
	// The processors read the knob through a callback so SetParallelism
	// retunes them without re-wiring.
	par := func() int { return int(db.par.Load()) }
	db.rbmProc.Parallel = par
	db.bwmProc.Parallel = par
	return db
}

// Parallelism returns the candidate-evaluation knob: 0 = auto (GOMAXPROCS),
// 1 = serial, n > 1 = exactly n workers.
func (db *DB) Parallelism() int { return int(db.par.Load()) }

// SetParallelism retunes the candidate-evaluation worker pool at runtime.
// Negative values are treated as 0 (auto). Queries already in flight keep
// the worker count they started with.
func (db *DB) SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	db.par.Store(int32(n))
}

// workers resolves the knob for one query execution.
func (db *DB) workers() int { return exec.Resolve(int(db.par.Load())) }

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
	// A clean shutdown snapshots the observed statistics (a crash loses at
	// most the distributions since the last Sync — they are advisory).
	_ = obs.DefaultStats().SaveFile(StatsSnapshotPath(db.cfg.Path))
	return err
}

// SaveQueryStats persists the process-wide query-statistics snapshot next
// to the database (see StatsSnapshotPath). A no-op for in-memory
// databases. The HTTP server calls it on a timer so a crash loses at most
// one interval of observed distributions.
func (db *DB) SaveQueryStats() error {
	db.mu.RLock()
	skip := db.seg == nil || db.closed // in-memory, or already snapshotted by Close
	db.mu.RUnlock()
	if skip {
		return nil
	}
	return obs.DefaultStats().SaveFile(StatsSnapshotPath(db.cfg.Path))
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
	if err := db.walCheckpointLocked(); err != nil {
		return err
	}
	_ = obs.DefaultStats().SaveFile(StatsSnapshotPath(db.cfg.Path))
	return nil
}

// InsertImage stores a binary image: the raster goes to the storage engine
// (or only the in-memory map), the histogram is extracted into the catalog,
// the BWM Main Component gains a cluster and the S-tree (once built) a
// point box.
func (db *DB) InsertImage(name string, img *imaging.Image) (uint64, error) {
	return db.InsertImageCtx(context.Background(), 0, name, img)
}

// InsertImageWithID is InsertImage with an explicit object id (0 means
// "allocate"). A cluster coordinator assigns ids globally and pushes them
// down so every shard shares one id space; a taken id fails with
// catalog.ErrIDTaken.
func (db *DB) InsertImageWithID(id uint64, name string, img *imaging.Image) (uint64, error) {
	return db.InsertImageCtx(context.Background(), id, name, img)
}

// InsertImageCtx is the canonical insert: it applies the mutation, logs it
// to the write-ahead log, and returns only once the log record is fsynced
// (the durability acknowledgement). Concurrent inserts share fsyncs via
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
	db.idx.InsertBinary(id)
	db.sidxInsertBinaryLocked(id, hist)
	return id, nil
}

// InsertEdited stores an edited image as its sequence. The base and all
// Merge targets must already be inserted binary images. The sequence is
// classified (widening or not) and routed into the BWM structure per the
// paper's Fig. 1.
func (db *DB) InsertEdited(name string, seq *editops.Sequence) (uint64, error) {
	return db.InsertEditedCtx(context.Background(), 0, name, seq)
}

// InsertEditedWithID is InsertEdited with an explicit object id (0 means
// "allocate"); see InsertImageWithID.
func (db *DB) InsertEditedWithID(id uint64, name string, seq *editops.Sequence) (uint64, error) {
	return db.InsertEditedCtx(context.Background(), id, name, seq)
}

// InsertEditedCtx is the canonical edited insert; see InsertImageCtx for
// the durability contract.
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
	db.idx.InsertEdited(id, seq.BaseID, widening)
	db.sidxUpsertEditedLocked(id)
	return id, nil
}

// AppendOps extends a stored edited image's sequence with more operations
// — the editing-session update path. The sequence is re-classified from
// scratch, the image re-routed between the BWM components if its
// classification changed, and its S-tree bounds box replaced.
func (db *DB) AppendOps(id uint64, ops []editops.Op) error {
	return db.AppendOpsCtx(context.Background(), id, ops)
}

// AppendOpsCtx is AppendOps with the durability wait bounded by ctx; see
// InsertImageCtx for the contract. The WAL record carries the full
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
// re-classify, re-route between BWM components if the classification
// changed, replace the S-tree bounds box. Shared by AppendOpsCtx and WAL
// replay; caller holds db.mu.
func (db *DB) applySetSequenceLocked(id uint64, newSeq *editops.Sequence) error {
	obj, err := db.cat.Edited(id)
	if err != nil {
		return err
	}
	base, err := db.cat.Binary(newSeq.BaseID)
	if err != nil {
		return err
	}
	oldWidening := obj.Widening
	widening := rules.SequenceIsWideningFor(newSeq.Ops, base.W, base.H)
	if err := db.cat.UpdateEdited(id, newSeq, widening); err != nil {
		return err
	}
	if err := db.segPutEditedLocked(id, obj.Name, widening, newSeq); err != nil {
		return err
	}
	if widening != oldWidening {
		db.idx.DeleteEdited(id, newSeq.BaseID)
		db.idx.InsertEdited(id, newSeq.BaseID, widening)
	}
	db.sidxUpsertEditedLocked(id)
	return nil
}

// Delete removes an object. Edited images are always deletable; a binary
// image is deletable only once no edited image references it as base or
// Merge target (catalog.ErrInUse otherwise). For persistent databases a
// tombstone shadows the object until compaction reclaims its bytes.
func (db *DB) Delete(id uint64) error {
	return db.DeleteCtx(context.Background(), id)
}

// DeleteCtx is Delete with the durability wait bounded by ctx; see
// InsertImageCtx for the contract.
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
	switch obj.Kind {
	case catalog.KindBinary:
		db.idx.DeleteBinary(id)
		delete(db.rasters, id)
	case catalog.KindEdited:
		db.idx.DeleteEdited(id, obj.Seq.BaseID)
	default:
		return fmt.Errorf("core: delete %d: unknown kind %d", id, obj.Kind)
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

// RangeQuery answers a color range query in the given execution mode.
//
// Deprecated: use RangeQueryCtx.
func (db *DB) RangeQuery(q query.Range, mode Mode) (*rbm.Result, error) {
	return db.RangeQueryCtx(context.Background(), q, mode)
}

// RangeQueryCtx is the canonical range-query entry point: ctx flows into
// the candidate walk (cancellation stops it), and options select the
// execution mode, tracing, and result limit (a bare Mode value is itself an
// option).
func (db *DB) RangeQueryCtx(ctx context.Context, q query.Range, opts ...QueryOption) (*rbm.Result, error) {
	cfg := buildQueryConfig(opts)
	if cfg.stopsEarly() {
		if err := q.Validate(db.cfg.Quantizer.Bins()); err != nil {
			return nil, err
		}
		return db.pagedDispatch(ctx, []pagedTerm{db.rangeTerm(q)}, query.And, cfg.Mode.String(), cfg)
	}
	res, err := db.rangeDispatch(ctx, q, cfg.Mode, cfg.Trace)
	if err != nil {
		return nil, err
	}
	res = applyPage(res, cfg)
	cfg.Trace.Count(obs.TImagesReturned, int64(len(res.IDs)))
	return res, nil
}

// RangeQueryTraced is RangeQuery with per-phase timings and decision counts
// recorded into tr; a nil tr disables tracing. Latency and query-count
// metrics are always recorded into the process registry.
//
// Deprecated: use RangeQueryCtx with WithTrace.
func (db *DB) RangeQueryTraced(q query.Range, mode Mode, tr *obs.Trace) (*rbm.Result, error) {
	return db.RangeQueryCtx(context.Background(), q, mode, WithTrace(tr))
}

// RangeQueryTracedCtx is RangeQueryCtx with a positional mode and trace.
//
// Deprecated: use RangeQueryCtx with WithTrace.
func (db *DB) RangeQueryTracedCtx(ctx context.Context, q query.Range, mode Mode, tr *obs.Trace) (*rbm.Result, error) {
	return db.RangeQueryCtx(ctx, q, mode, WithTrace(tr))
}

// rangeDispatch is the mode switch behind every range-query entry point.
func (db *DB) rangeDispatch(ctx context.Context, q query.Range, mode Mode, tr *obs.Trace) (*rbm.Result, error) {
	start := time.Now()
	if err := db.walQueryBarrier(ctx, tr); err != nil {
		return nil, err
	}
	var res *rbm.Result
	var err error
	switch mode {
	case ModeBWM:
		res, err = db.bwmProc.RangeTracedCtx(ctx, q, tr)
	case ModeRBM:
		res, err = db.rbmProc.RangeTracedCtx(ctx, q, tr)
	case ModeInstantiate:
		res, err = db.rangeInstantiate(ctx, q, tr)
	case ModeIndexed:
		res, err = db.rangeSTree(ctx, q, tr)
	default:
		return nil, fmt.Errorf("core: unknown mode %d", uint8(mode))
	}
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	mQueryDur[mode].ObserveDuration(elapsed)
	mQueryCount[mode].Inc()
	tr.Count(obs.TCandidatesExamined, int64(res.Stats.BinariesChecked+res.Stats.EditedWalked+res.Stats.EditedSkipped))
	bins, edited := db.cat.Len()
	db.recordQueryStats(mode.String(), elapsed, res, bins+edited)
	return res, nil
}

// recordQueryStats feeds the always-on statistics recorder — the observed
// distributions the cost-based planner reads (selectivity, edited share of
// the candidate set, widening-shortcut applicability). Fractions with an
// empty denominator are skipped (-1) rather than recorded as zero. scanned
// is the selectivity denominator: the corpus size for a set-at-a-time
// query, the candidates actually judged for a paged one.
func (db *DB) recordQueryStats(strategy string, elapsed time.Duration, res *rbm.Result, scanned int) {
	st := obs.DefaultStats()
	if !st.Enabled() {
		return
	}
	sel := -1.0
	if scanned > 0 {
		sel = float64(len(res.IDs)) / float64(scanned)
	}
	editedSeen := res.Stats.EditedWalked + res.Stats.EditedSkipped
	editedFrac := -1.0
	if cand := res.Stats.BinariesChecked + editedSeen; cand > 0 {
		editedFrac = float64(editedSeen) / float64(cand)
	}
	widening := -1.0
	if editedSeen > 0 {
		widening = float64(res.Stats.EditedSkipped) / float64(editedSeen)
	}
	st.RecordQuery(strategy, elapsed, sel, editedFrac, widening)
}

// RangeQueryText parses a textual range query ("at least 25% blue") and
// executes it.
//
// Deprecated: use RangeQueryTextCtx.
func (db *DB) RangeQueryText(text string, mode Mode) (*rbm.Result, error) {
	return db.RangeQueryTextCtx(context.Background(), text, mode)
}

// RangeQueryTextCtx parses and executes a textual range query under ctx;
// options select the execution mode, tracing, and result limit.
func (db *DB) RangeQueryTextCtx(ctx context.Context, text string, opts ...QueryOption) (*rbm.Result, error) {
	q, err := query.ParseRange(text, db.cfg.Quantizer)
	if err != nil {
		return nil, err
	}
	return db.RangeQueryCtx(ctx, q, opts...)
}

// rangeInstantiate is the ground-truth baseline: every edited image is
// materialized and matched exactly.
func (db *DB) rangeInstantiate(ctx context.Context, q query.Range, tr *obs.Trace) (*rbm.Result, error) {
	if err := q.Validate(db.cfg.Quantizer.Bins()); err != nil {
		return nil, err
	}
	res := &rbm.Result{}
	done := tr.Phase("instantiate.scan-binaries")
	for _, id := range db.cat.Binaries() {
		obj, err := db.cat.Binary(id)
		if errors.Is(err, catalog.ErrNotFound) {
			continue
		}
		if err != nil {
			return nil, err
		}
		res.Stats.BinariesChecked++
		if q.MatchesExact(obj.Hist) {
			res.IDs = append(res.IDs, id)
			tr.Count(obs.TBaseMatches, 1)
		}
	}
	done()
	done = tr.Phase("instantiate.materialize-edited")
	env := db.env()
	matched, st, err := db.filterEdited(ctx, db.cat.EditedIDs(), tr, func(id uint64, st *rbm.Stats) (bool, error) {
		obj, err := db.cat.Edited(id)
		if errors.Is(err, catalog.ErrNotFound) {
			return false, nil
		}
		if err != nil {
			return false, err
		}
		return db.instantiateMatches(obj, env, q.MatchesExact, st, tr)
	})
	if err != nil {
		return nil, err
	}
	res.IDs = append(res.IDs, matched...)
	res.Stats.Add(st)
	done()
	sort.Slice(res.IDs, func(i, j int) bool { return res.IDs[i] < res.IDs[j] })
	return res, nil
}

// instantiateMatches materializes one edited image and applies the exact
// histogram test — ModeInstantiate's per-candidate verdict.
func (db *DB) instantiateMatches(obj *catalog.Object, env *editops.Env, exact func(*histogram.Histogram) bool, st *rbm.Stats, tr *obs.Trace) (bool, error) {
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
	tr.Count(obs.TEditedInstantiated, 1)
	if img.Size() == 0 {
		return false, nil
	}
	return exact(histogram.Extract(img, db.cfg.Quantizer)), nil
}

// CompoundQuery evaluates a multi-predicate query: each term runs in the
// given mode, then the id sets are intersected (And) or unioned (Or).
// Per-term statistics accumulate into the result's Stats. Because every
// term's set is mode-equivalent (BWM ≡ RBM), the combined sets are too.
//
// Deprecated: use CompoundQueryCtx.
func (db *DB) CompoundQuery(c query.Compound, mode Mode) (*rbm.Result, error) {
	return db.CompoundQueryCtx(context.Background(), c, mode)
}

// CompoundQueryTraced is CompoundQuery with tracing: each term's execution
// records into the same trace, and the set combination gets its own phase.
//
// Deprecated: use CompoundQueryCtx with WithTrace.
func (db *DB) CompoundQueryTraced(c query.Compound, mode Mode, trace *obs.Trace) (*rbm.Result, error) {
	return db.CompoundQueryCtx(context.Background(), c, mode, WithTrace(trace))
}

// CompoundQueryCtx is the canonical compound entry point: ctx flows into
// the term fan-out and each term's own candidate walk; options select the
// execution mode, tracing, and result limit.
func (db *DB) CompoundQueryCtx(ctx context.Context, c query.Compound, opts ...QueryOption) (*rbm.Result, error) {
	cfg := buildQueryConfig(opts)
	if cfg.stopsEarly() {
		if err := c.Validate(db.cfg.Quantizer.Bins()); err != nil {
			return nil, err
		}
		terms := make([]pagedTerm, len(c.Terms))
		for i, q := range c.Terms {
			terms[i] = db.rangeTerm(q)
		}
		return db.pagedDispatch(ctx, terms, c.Conn, cfg.Mode.String(), cfg)
	}
	res, err := db.compoundDispatch(ctx, c, cfg.Mode, cfg.Trace)
	if err != nil {
		return nil, err
	}
	res = applyPage(res, cfg)
	cfg.Trace.Count(obs.TImagesReturned, int64(len(res.IDs)))
	return res, nil
}

// CompoundQueryTracedCtx is CompoundQueryCtx with a positional mode and
// trace.
//
// Deprecated: use CompoundQueryCtx with WithTrace.
func (db *DB) CompoundQueryTracedCtx(ctx context.Context, c query.Compound, mode Mode, trace *obs.Trace) (*rbm.Result, error) {
	return db.CompoundQueryCtx(ctx, c, mode, WithTrace(trace))
}

// compoundDispatch runs the terms and combines their id sets.
func (db *DB) compoundDispatch(ctx context.Context, c query.Compound, mode Mode, trace *obs.Trace) (*rbm.Result, error) {
	if err := c.Validate(db.cfg.Quantizer.Bins()); err != nil {
		return nil, err
	}
	res := &rbm.Result{}
	// Terms are independent queries, so they run concurrently on the worker
	// pool (each term's own candidate walk may fan out again underneath).
	// Combination happens afterwards in term order, which keeps the result
	// set and accumulated statistics identical to a serial evaluation.
	results := make([]*rbm.Result, len(c.Terms))
	pst, err := exec.ForEach(ctx, db.workers(), len(c.Terms), func(w, i int) error {
		r, terr := db.rangeDispatch(ctx, c.Terms[i], mode, trace)
		if terr != nil {
			return terr
		}
		results[i] = r
		return nil
	})
	if pst.Workers > 1 {
		pst.Record(trace)
	}
	if err != nil {
		return nil, err
	}
	// Every term's ids are ascending and unique, so a one-term compound
	// (every plain text query) is its term's answer as is and And/Or are
	// linear merges.
	done := trace.Phase("compound.combine")
	ids := results[0].IDs
	for i, tr := range results {
		res.Stats.Add(tr.Stats)
		if i > 0 {
			ids = mergeSorted(ids, tr.IDs, c.Conn == query.Or)
		}
	}
	if ids == nil {
		ids = []uint64{} // an empty answer stays "ids": [] on the wire
	}
	res.IDs = ids
	done()
	return res, nil
}

// mergeSorted combines two ascending, duplicate-free id lists into their
// union or their intersection, ascending.
func mergeSorted(a, b []uint64, union bool) []uint64 {
	out := make([]uint64, 0, len(a))
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] == b[0]:
			out = append(out, a[0])
			a, b = a[1:], b[1:]
		case a[0] < b[0]:
			if union {
				out = append(out, a[0])
			}
			a = a[1:]
		default:
			if union {
				out = append(out, b[0])
			}
			b = b[1:]
		}
	}
	if union {
		out = append(append(out, a...), b...)
	}
	return out
}

// CompoundQueryText parses and evaluates a textual compound query
// ("at least 20% red and at most 10% blue").
//
// Deprecated: use CompoundQueryTextCtx.
func (db *DB) CompoundQueryText(text string, mode Mode) (*rbm.Result, error) {
	return db.CompoundQueryTextCtx(context.Background(), text, mode)
}

// CompoundQueryTextTraced parses and evaluates a textual compound query
// with tracing, recording the parse as its own phase.
//
// Deprecated: use CompoundQueryTextCtx with WithTrace.
func (db *DB) CompoundQueryTextTraced(text string, mode Mode, tr *obs.Trace) (*rbm.Result, error) {
	return db.CompoundQueryTextCtx(context.Background(), text, mode, WithTrace(tr))
}

// CompoundQueryTextTracedCtx parses and evaluates a textual compound query
// with tracing under the caller's ctx.
//
// Deprecated: use CompoundQueryTextCtx with WithTrace.
func (db *DB) CompoundQueryTextTracedCtx(ctx context.Context, text string, mode Mode, tr *obs.Trace) (*rbm.Result, error) {
	return db.CompoundQueryTextCtx(ctx, text, mode, WithTrace(tr))
}

// CompoundQueryTextCtx parses and evaluates a textual compound query under
// ctx, recording the parse as its own phase when tracing.
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
