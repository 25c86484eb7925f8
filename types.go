package mmdb

import (
	"repro/internal/catalog"
	"repro/internal/colorspace"
	"repro/internal/core"
	"repro/internal/editops"
	"repro/internal/histogram"
	"repro/internal/imaging"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/rbm"
	"repro/internal/rules"
	"repro/internal/signature"
	"repro/internal/store"
	"repro/internal/store/segment"
)

// Curated public surface: the library's value types are defined in internal
// packages and re-exported here so applications program against a single
// import.

// Raster types.
type (
	// Image is a W×H RGB raster stored row-major.
	Image = imaging.Image
	// RGB is a 24-bit color.
	RGB = imaging.RGB
	// Rect is a half-open rectangle, used for Defined Regions.
	Rect = imaging.Rect
)

// NewImage returns a zeroed w×h raster.
func NewImage(w, h int) *Image { return imaging.New(w, h) }

// NewFilledImage returns a w×h raster filled with c.
func NewFilledImage(w, h int, c RGB) *Image { return imaging.NewFilled(w, h, c) }

// R constructs a rectangle from two corners.
func R(x0, y0, x1, y1 int) Rect { return imaging.R(x0, y0, x1, y1) }

// Editing operation types (the paper's complete set).
type (
	// Op is one editing operation.
	Op = editops.Op
	// Define selects the Defined Region for subsequent operations.
	Define = editops.Define
	// Combine blurs the DR with a 3×3 weighted stencil.
	Combine = editops.Combine
	// Modify recolors DR pixels of one exact color to another.
	Modify = editops.Modify
	// Mutate rearranges DR pixels with an affine matrix.
	Mutate = editops.Mutate
	// Merge pastes the DR into a target image (or extracts it, with a null
	// target).
	Merge = editops.Merge
	// Sequence is an edited image: base reference plus operations.
	Sequence = editops.Sequence
)

// NullTarget is the Merge target meaning "no target image".
const NullTarget = editops.NullTarget

// Query types.
type (
	// Range is a color range query over one histogram bin.
	Range = query.Range
	// Compound is a multi-predicate query joined by And or Or.
	Compound = query.Compound
	// MultiRange is a range query over a set of bins (color families).
	MultiRange = query.MultiRange
	// KNN is a k-nearest-neighbor similarity query.
	KNN = query.KNN
	// Metric selects the histogram distance for KNN queries.
	Metric = query.Metric
	// Result is a range-query answer: matching ids plus execution stats.
	Result = rbm.Result
	// QueryStats instruments a range-query execution.
	QueryStats = rbm.Stats
	// Match is one KNN result.
	Match = core.Match
	// KNNStats instruments a KNN execution.
	KNNStats = core.KNNStats
)

// Compound connectives.
const (
	// QueryAnd intersects compound terms.
	QueryAnd = query.And
	// QueryOr unions them.
	QueryOr = query.Or
)

// Distance metrics.
const (
	MetricL1           = query.MetricL1
	MetricL2           = query.MetricL2
	MetricIntersection = query.MetricIntersection
)

// ErrWALTruncated reports a WAL tail cursor below the checkpoint floor:
// the follower must re-seed from a snapshot (see DB.WALTail).
var ErrWALTruncated = store.ErrWALTruncated

// ErrIncompatible reports a store built with a different quantizer or
// background than the configuration asks for.
var ErrIncompatible = core.ErrIncompatible

// ErrLegacyStore reports a path holding a database in a format this build
// no longer reads (a page-store file, or version-1 segments). The message
// names the way across: `esidb dump` from the last build that reads it,
// then `esidb load`.
var ErrLegacyStore = core.ErrLegacyStore

// ErrNotDatabase reports a regular file at the database path that is not a
// database.
var ErrNotDatabase = core.ErrNotDatabase

// ErrNoWAL reports a WAL operation against a database without a
// write-ahead log (in-memory databases).
var ErrNoWAL = core.ErrNoWAL

// Mode selects the range-query execution strategy.
type Mode = core.Mode

// Execution modes.
const (
	// ModeBWM is the paper's Bound-Widening Method (default).
	ModeBWM = core.ModeBWM
	// ModeRBM is the Rule-Based Method baseline.
	ModeRBM = core.ModeRBM
	// ModeInstantiate is the exact (expensive) ground truth.
	ModeInstantiate = core.ModeInstantiate
	// ModeIndexed answers from the bounds S-tree: a spatial index over
	// per-candidate histogram bound boxes that prunes whole subtrees whose
	// union box provably misses the query (identical results to a scan).
	ModeIndexed = core.ModeIndexed
)

// Mode registry helpers.
var (
	// AllModes lists every execution mode in a stable order.
	AllModes = core.AllModes
	// ModeNames lists every execution mode's string form, for CLI help and
	// error messages.
	ModeNames = core.ModeNames
	// ParseMode resolves a mode name (one of ModeNames); the empty string
	// selects the default (ModeBWM). Unknown names get an error enumerating
	// the valid set.
	ParseMode = core.ParseMode
)

// QueryOption configures one query execution on the canonical *Ctx query
// methods. A Mode value is itself a QueryOption selecting the execution
// strategy; see also WithMode, WithTrace, WithLimit, and WithAfter.
type QueryOption = core.QueryOption

// Query option constructors.
var (
	// WithMode selects the execution strategy (equivalent to passing the
	// Mode value directly).
	WithMode = core.WithMode
	// WithTrace records per-phase timings and decision counts into a Trace
	// (nil disables tracing).
	WithTrace = core.WithTrace
	// WithLimit caps the result id list at the first n ids in ascending id
	// order; range, compound and multi-bin queries stop evaluating once the
	// page is full.
	WithLimit = core.WithLimit
	// WithAfter is the keyset cursor beside WithLimit: only ids greater than
	// the given id are returned, so passing each page's last id walks the
	// answer page by page.
	WithAfter = core.WithAfter
)

// Trace records per-phase timings and decision counts for one query. All
// methods are nil-safe, so a nil *Trace disables tracing.
type Trace = obs.Trace

// NewTrace returns an empty query trace for use with the *Traced query
// variants.
func NewTrace() *Trace { return obs.NewTrace() }

// BIC (border/interior classification) signature types.
type (
	// BICIndex is an in-memory BIC search structure.
	BICIndex = signature.Index
	// BICMatch is one BIC search result.
	BICMatch = signature.Match
	// BICSignature is a border/interior histogram pair.
	BICSignature = signature.BIC
)

// ExtractBIC computes a raster's BIC signature under a quantizer.
var ExtractBIC = signature.ExtractBIC

// Signature and rule types.
type (
	// Histogram is a color-histogram signature.
	Histogram = histogram.Histogram
	// Bounds brackets an edited image's possible pixel count for one bin.
	Bounds = rules.Bounds
	// Quantizer maps colors to histogram bins.
	Quantizer = colorspace.Quantizer
	// Object is a catalog entry.
	Object = catalog.Object
	// Stats aggregates database statistics.
	Stats = core.DBStats
	// StoreCheck is the result of a storage integrity scan (DB.CheckStore).
	StoreCheck = segment.CheckResult
	// WALStats reports write-ahead-log activity (see DB.WALStats).
	WALStats = store.WALStats
	// SegmentOptions tunes the storage engine (see WithSegmentStore).
	SegmentOptions = segment.Options
	// SegmentStats reports storage-engine activity (see DB.SegmentStats).
	SegmentStats = segment.EngineStats
	// SegmentManifest lists a database's live segments.
	SegmentManifest = segment.Manifest
	// WALFrame is one replicated write-ahead-log record (see DB.WALTail).
	WALFrame = store.WALRecord
	// WALTailResult is one page of the WAL replication stream.
	WALTailResult = store.WALTailResult
	// Plan is a range-query execution plan (see DB.Explain).
	Plan = core.Plan
)

// Object kinds.
const (
	KindBinary = catalog.KindBinary
	KindEdited = catalog.KindEdited
)

// Convenience re-exports for building edit sequences.
var (
	// BoxBlur returns Define + uniform 3×3 Combine.
	BoxBlur = editops.BoxBlur
	// GaussianBlur returns Define + binomial 3×3 Combine.
	GaussianBlur = editops.GaussianBlur
	// Recolor returns Define + Modify per color pair.
	Recolor = editops.Recolor
	// TranslateRegion returns Define + rigid Mutate shifting the region.
	TranslateRegion = editops.TranslateRegion
	// RotateRegion returns Define + rigid Mutate rotating about the
	// region's center.
	RotateRegion = editops.RotateRegion
	// FlipHorizontal mirrors the region across its vertical center line.
	FlipHorizontal = editops.FlipHorizontal
	// ScaleImage resizes the whole image.
	ScaleImage = editops.ScaleImage
	// CropTo crops the image to a region.
	CropTo = editops.CropTo
	// PasteOnto pastes a region onto a target image.
	PasteOnto = editops.PasteOnto
	// Synthesize produces a sequence transforming one raster into another
	// (the operation set's completeness property).
	Synthesize = editops.Synthesize
)

// Quantizer constructors.
var (
	// NewRGBQuantizer uniformly quantizes RGB into n³ bins.
	NewRGBQuantizer = colorspace.NewUniformRGB
	// NewHSVQuantizer uniformly quantizes HSV.
	NewHSVQuantizer = colorspace.NewUniformHSV
	// NewLuvQuantizer uniformly quantizes CIE L*u*v*.
	NewLuvQuantizer = colorspace.NewUniformLuv
)

// ExtractHistogram computes an image's histogram under a quantizer.
func ExtractHistogram(img *Image, q Quantizer) *Histogram {
	return histogram.Extract(img, q)
}

// Raster codec re-exports.
var (
	// ReadPPMFile decodes a PPM (P3/P6) file.
	ReadPPMFile = imaging.ReadPPMFile
	// WritePPMFile encodes a raster as binary PPM.
	WritePPMFile = imaging.WritePPMFile
	// DecodePPM reads PPM from a reader.
	DecodePPM = imaging.DecodePPM
	// EncodePPM writes binary PPM to a writer.
	EncodePPM = imaging.EncodePPM
	// DecodePNG reads PNG from a reader.
	DecodePNG = imaging.DecodePNG
	// EncodePNG writes PNG to a writer.
	EncodePNG = imaging.EncodePNG
)

// Sequence codec re-exports.
var (
	// ParseSequence parses the text sequence format.
	ParseSequence = editops.ParseText
	// FormatSequence renders a sequence in the text format.
	FormatSequence = editops.FormatText
)
