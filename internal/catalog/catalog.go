// Package catalog maintains the object metadata of the augmented image
// database: binary (raster) images with their extracted histograms, edited
// images stored as operation sequences, and the base↔edited connections the
// paper uses to return an edited image's original alongside it. The catalog
// holds no pixels; rasters live in the blob store.
package catalog

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/editops"
	"repro/internal/histogram"
)

// Kind distinguishes the two storage representations.
type Kind uint8

const (
	// KindBinary is a conventionally stored raster image with an extracted
	// histogram signature.
	KindBinary Kind = iota + 1
	// KindEdited is an image stored as a base reference plus an editing
	// sequence; it has no materialized histogram.
	KindEdited
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindBinary:
		return "binary"
	case KindEdited:
		return "edited"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Object is one catalog entry. Binary objects carry W/H/Hist; edited
// objects carry Seq and the widening classification computed at insert.
type Object struct {
	ID   uint64
	Kind Kind
	// Name is an optional human label ("flag-042", "helmet-007-edit-3").
	Name string

	// Binary-image fields.
	W, H int
	Hist *histogram.Histogram

	// Edited-image fields.
	Seq *editops.Sequence
	// Widening records whether every operation in Seq has a bound-widening
	// rule under the database's geometry (rules.SequenceIsWideningFor).
	Widening bool
}

// ErrNotFound is returned for lookups of unknown object ids.
var ErrNotFound = errors.New("catalog: object not found")

// ErrIDTaken is returned by the WithID insert variants when the requested
// id is already occupied.
var ErrIDTaken = errors.New("catalog: id already in use")

// Catalog is an in-memory object directory safe for concurrent readers and
// a single writer; internal/core persists it. Its entries are one id-ordered
// array, an ascending id column and the objects beside it: a lookup is a
// binary search, an id range is a slice, and a live catalog lists its
// entries exactly as its reopened self would.
type Catalog struct {
	mu       sync.RWMutex
	nextID   uint64              // guarded by mu
	ids      []uint64            // every entry's id, ascending; guarded by mu
	objs     []*Object           // objs[i].ID == ids[i]; guarded by mu
	nBinary  int                 // binary entries; guarded by mu
	nEdited  int                 // edited entries; guarded by mu
	children map[uint64][]uint64 // base id -> edited ids derived from it; guarded by mu
	// targetRefs counts, per binary image, how many edited sequences use it
	// as a Merge target; such images cannot be deleted while referenced.
	targetRefs map[uint64]int // guarded by mu
}

// New returns an empty catalog. Ids start at 1; 0 is reserved (it is the
// null Merge target).
func New() *Catalog {
	return &Catalog{
		nextID:     1,
		children:   make(map[uint64][]uint64),
		targetRefs: make(map[uint64]int),
	}
}

// AddBinary registers a binary image and returns its id.
func (c *Catalog) AddBinary(name string, w, h int, hist *histogram.Histogram) (uint64, error) {
	return c.AddBinaryWithID(0, name, w, h, hist)
}

// AddBinaryWithID registers a binary image under an explicit id (0 means
// "allocate the next sequential id", which is AddBinary). Cluster
// coordinators use explicit ids to keep a single global id space across
// shards; ErrIDTaken reports collisions.
func (c *Catalog) AddBinaryWithID(id uint64, name string, w, h int, hist *histogram.Histogram) (uint64, error) {
	if hist == nil {
		return 0, errors.New("catalog: binary image needs a histogram")
	}
	if w <= 0 || h <= 0 {
		return 0, fmt.Errorf("catalog: invalid dimensions %dx%d", w, h)
	}
	if hist.Total != w*h {
		return 0, fmt.Errorf("catalog: histogram total %d does not match %dx%d", hist.Total, w, h)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	id, err := c.claimIDLocked(id)
	if err != nil {
		return 0, err
	}
	c.insertLocked(&Object{ID: id, Kind: KindBinary, Name: name, W: w, H: h, Hist: hist})
	return id, nil
}

// AddEdited registers an edited image. The sequence's base and all Merge
// targets must already be binary objects; widening is the caller-computed
// classification (the caller owns the rules dependency).
func (c *Catalog) AddEdited(name string, seq *editops.Sequence, widening bool) (uint64, error) {
	return c.AddEditedWithID(0, name, seq, widening)
}

// AddEditedWithID is AddEdited with an explicit id (0 = allocate); see
// AddBinaryWithID.
func (c *Catalog) AddEditedWithID(id uint64, name string, seq *editops.Sequence, widening bool) (uint64, error) {
	if seq == nil {
		return 0, errors.New("catalog: edited image needs a sequence")
	}
	if err := seq.Validate(); err != nil {
		return 0, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.isBinaryLocked(seq.BaseID) {
		return 0, fmt.Errorf("catalog: base %d: %w", seq.BaseID, ErrNotFound)
	}
	if err := c.checkTargetsLocked(seq); err != nil {
		return 0, err
	}
	id, err := c.claimIDLocked(id)
	if err != nil {
		return 0, err
	}
	c.insertLocked(&Object{ID: id, Kind: KindEdited, Name: name, Seq: seq, Widening: widening})
	return id, nil
}

// findLocked returns where id is, or belongs, in the id column.
func (c *Catalog) findLocked(id uint64) (int, bool) {
	return slices.BinarySearch(c.ids, id)
}

// isBinaryLocked reports whether id is a binary image.
func (c *Catalog) isBinaryLocked(id uint64) bool {
	i, ok := c.findLocked(id)
	return ok && c.objs[i].Kind == KindBinary
}

// checkTargetsLocked requires every Merge target of seq to be a binary image.
func (c *Catalog) checkTargetsLocked(seq *editops.Sequence) error {
	for _, t := range seq.MergeTargets() {
		if !c.isBinaryLocked(t) {
			return fmt.Errorf("catalog: merge target %d: %w", t, ErrNotFound)
		}
	}
	return nil
}

// insertLocked places a new entry in the array: an append for an id past
// the tail, as every automatically allocated id is, a shift of the entries
// above a pinned id below it.
func (c *Catalog) insertLocked(obj *Object) {
	i, _ := c.findLocked(obj.ID)
	c.ids, c.objs = slices.Insert(c.ids, i, obj.ID), slices.Insert(c.objs, i, obj)
	c.linkLocked(obj)
}

// linkLocked counts a new entry and records an edited image's references.
func (c *Catalog) linkLocked(obj *Object) {
	if obj.Kind == KindBinary {
		c.nBinary++
		return
	}
	c.nEdited++
	c.children[obj.Seq.BaseID] = append(c.children[obj.Seq.BaseID], obj.ID)
	c.refTargetsLocked(obj.Seq, 1)
}

// claimIDLocked resolves an insert id: 0 allocates the next sequential id,
// anything else claims that exact id and bumps the allocator past it so
// later automatic inserts never collide. Callers hold mu.
func (c *Catalog) claimIDLocked(id uint64) (uint64, error) {
	if id == 0 {
		id = c.nextID
		c.nextID++
		return id, nil
	}
	if _, exists := c.findLocked(id); exists {
		return 0, fmt.Errorf("catalog: id %d: %w", id, ErrIDTaken)
	}
	if id >= c.nextID {
		c.nextID = id + 1
	}
	return id, nil
}

// Get returns an object by id.
func (c *Catalog) Get(id uint64) (*Object, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	i, ok := c.findLocked(id)
	if !ok {
		return nil, fmt.Errorf("catalog: id %d: %w", id, ErrNotFound)
	}
	return c.objs[i], nil
}

// Binary returns a binary object by id, failing on edited objects.
func (c *Catalog) Binary(id uint64) (*Object, error) { return c.getKind(id, KindBinary) }

// Edited returns an edited object by id, failing on binary objects.
func (c *Catalog) Edited(id uint64) (*Object, error) { return c.getKind(id, KindEdited) }

// getKind is Get for an object of one kind.
func (c *Catalog) getKind(id uint64, kind Kind) (*Object, error) {
	obj, err := c.Get(id)
	if err == nil && obj.Kind != kind {
		return nil, fmt.Errorf("catalog: id %d is %s, want %s", id, obj.Kind, kind)
	}
	return obj, err
}

// Binaries returns the binary image ids in ascending order (copied).
func (c *Catalog) Binaries() []uint64 { return c.idsOf(KindBinary) }

// EditedIDs returns the edited image ids in ascending order (copied).
func (c *Catalog) EditedIDs() []uint64 { return c.idsOf(KindEdited) }

// idsOf filters the id column down to one kind.
func (c *Catalog) idsOf(kind Kind) []uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n := c.nBinary
	if kind == KindEdited {
		n = c.nEdited
	}
	out := make([]uint64, 0, n)
	for i, obj := range c.objs {
		if obj.Kind == kind {
			out = append(out, c.ids[i])
		}
	}
	return out
}

// ObjectsAfter returns, in dst's storage, up to n objects whose ids are
// greater than after, in ascending id order, binary and edited images
// together — the id-ordered candidate source of paged queries, one search
// and one copy under one lock acquisition. Fewer than n objects means the
// catalog has no more.
func (c *Catalog) ObjectsAfter(dst []*Object, after uint64, n int) []*Object {
	c.mu.RLock()
	defer c.mu.RUnlock()
	i, found := c.findLocked(after)
	if found {
		i++
	}
	return append(dst[:0], c.objs[i:i+max(0, min(n, len(c.objs)-i))]...)
}

// Objects returns the objects with the given ids, in that order, duplicates
// kept, fetched under one lock acquisition — how a query answer is
// hydrated. An id no longer in the catalog (deleted since the query chose
// it) is skipped. Each id gallops forward from its predecessor's place, so
// an ascending list, as every query answer is, costs one merge with the id
// column; an id below its predecessor is searched from the front.
func (c *Catalog) Objects(ids []uint64) []*Object {
	out := make([]*Object, 0, len(ids))
	c.mu.RLock()
	defer c.mu.RUnlock()
	at := 0
	for k, id := range ids {
		if k > 0 && id < ids[k-1] {
			at = 0
		}
		var found bool
		if at, found = c.seekLocked(at, id); found {
			out = append(out, c.objs[at])
		}
	}
	return out
}

// seekLocked is findLocked for an id greater than every id before from: it
// doubles its step from there until it passes id, then searches the last
// step, so it costs the log of the distance travelled.
func (c *Catalog) seekLocked(from int, id uint64) (int, bool) {
	hi := from
	for step := 1; hi < len(c.ids) && c.ids[hi] < id; step *= 2 {
		from, hi = hi+1, hi+step
	}
	i, found := slices.BinarySearch(c.ids[from:min(hi+1, len(c.ids))], id)
	return from + i, found
}

// EditedOf returns the edited images derived from a base, in insertion
// order (copied).
func (c *Catalog) EditedOf(baseID uint64) []uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]uint64{}, c.children[baseID]...)
}

// BaseOf returns the base image id of an edited object.
func (c *Catalog) BaseOf(editedID uint64) (uint64, error) {
	obj, err := c.Edited(editedID)
	if err != nil {
		return 0, err
	}
	return obj.Seq.BaseID, nil
}

// Len returns (binary, edited) object counts.
func (c *Catalog) Len() (binaries, edited int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.nBinary, c.nEdited
}

// Stats summarizes the catalog the way the paper's Table 2 does.
type Stats struct {
	Images          int // total objects
	Binaries        int
	Edited          int
	WideningOnly    int     // edited images with only bound-widening rules
	NonWidening     int     // edited images with ≥1 non-widening rule
	AvgOpsPerEdited float64 // average sequence length
}

// Stats computes catalog statistics.
func (c *Catalog) Stats() Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s := Stats{Binaries: c.nBinary, Edited: c.nEdited}
	s.Images = s.Binaries + s.Edited
	totalOps := 0
	for _, obj := range c.objs {
		if obj.Kind != KindEdited {
			continue
		}
		totalOps += len(obj.Seq.Ops)
		if obj.Widening {
			s.WideningOnly++
		}
	}
	s.NonWidening = s.Edited - s.WideningOnly
	if s.Edited > 0 {
		s.AvgOpsPerEdited = float64(totalOps) / float64(s.Edited)
	}
	return s
}

// Restore reinstates persisted objects under their original ids when a
// database is reopened, in any order (objs is sorted by id in place). An
// edited image's base must be a binary image among them or in the catalog.
// They are merged into the array in one linear pass; on an incomplete
// object, an orphan or a taken id the catalog is left as it was.
func (c *Catalog) Restore(objs []*Object) error {
	for _, obj := range objs {
		switch {
		case obj == nil || obj.ID == 0:
			return errors.New("catalog: restore of nil or id-0 object")
		case obj.Kind == KindBinary && (obj.Hist == nil || obj.W <= 0 || obj.H <= 0):
			return fmt.Errorf("catalog: restore binary %d: incomplete", obj.ID)
		case obj.Kind == KindEdited && obj.Seq == nil:
			return fmt.Errorf("catalog: restore edited %d: missing sequence", obj.ID)
		case obj.Kind != KindBinary && obj.Kind != KindEdited:
			return fmt.Errorf("catalog: restore %d: unknown kind %d", obj.ID, obj.Kind)
		}
	}
	slices.SortFunc(objs, func(a, b *Object) int { return cmp.Compare(a.ID, b.ID) })
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := make([]uint64, 0, len(c.ids)+len(objs))
	all := make([]*Object, 0, len(c.ids)+len(objs))
	i := 0
	for _, obj := range objs {
		for ; i < len(c.ids) && c.ids[i] < obj.ID; i++ {
			ids, all = append(ids, c.ids[i]), append(all, c.objs[i])
		}
		if n := len(ids); n > 0 && ids[n-1] == obj.ID || i < len(c.ids) && c.ids[i] == obj.ID {
			return fmt.Errorf("catalog: restore: id %d already present", obj.ID)
		}
		ids, all = append(ids, obj.ID), append(all, obj)
	}
	ids, all = append(ids, c.ids[i:]...), append(all, c.objs[i:]...)
	for _, obj := range objs {
		if obj.Kind != KindEdited {
			continue
		}
		if b, ok := slices.BinarySearch(ids, obj.Seq.BaseID); !ok || all[b].Kind != KindBinary {
			return fmt.Errorf("catalog: restore edited %d: base %d: %w", obj.ID, obj.Seq.BaseID, ErrNotFound)
		}
	}
	c.ids, c.objs = ids, all
	for _, obj := range objs {
		c.linkLocked(obj)
		c.nextID = max(c.nextID, obj.ID+1)
	}
	return nil
}

// UpdateEdited replaces an edited object's sequence (same base) and its
// widening classification, keeping Merge-target reference counts accurate.
// The new sequence's base must equal the existing one — re-basing would
// silently change the image's identity.
func (c *Catalog) UpdateEdited(id uint64, seq *editops.Sequence, widening bool) error {
	if seq == nil {
		return errors.New("catalog: nil sequence")
	}
	if err := seq.Validate(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.findLocked(id)
	if !ok || c.objs[i].Kind != KindEdited {
		return fmt.Errorf("catalog: edited id %d: %w", id, ErrNotFound)
	}
	obj := c.objs[i]
	if seq.BaseID != obj.Seq.BaseID {
		return fmt.Errorf("catalog: update would re-base %d from %d to %d", id, obj.Seq.BaseID, seq.BaseID)
	}
	if err := c.checkTargetsLocked(seq); err != nil {
		return err
	}
	c.refTargetsLocked(obj.Seq, -1)
	c.refTargetsLocked(seq, 1)
	// Copy-on-write: concurrent readers hold *Object pointers from Get and
	// must keep seeing a consistent (old) version.
	updated := *obj
	updated.Seq = seq
	updated.Widening = widening
	c.objs[i] = &updated
	return nil
}

// ErrInUse is returned when deleting a binary image that edited images
// still depend on (as their base or as a Merge target).
var ErrInUse = errors.New("catalog: image is referenced by edited images")

// Delete removes an object. Edited images can always be deleted; binary
// images only when no edited image references them as base or Merge target
// (delete the dependents first).
func (c *Catalog) Delete(id uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.findLocked(id)
	if !ok {
		return fmt.Errorf("catalog: id %d: %w", id, ErrNotFound)
	}
	switch obj := c.objs[i]; obj.Kind {
	case KindBinary:
		if len(c.children[id]) > 0 {
			return fmt.Errorf("catalog: id %d has %d edited versions: %w", id, len(c.children[id]), ErrInUse)
		}
		if c.targetRefs[id] > 0 {
			return fmt.Errorf("catalog: id %d is a merge target of %d sequences: %w", id, c.targetRefs[id], ErrInUse)
		}
		c.nBinary--
		delete(c.children, id)
	case KindEdited:
		c.nEdited--
		c.children[obj.Seq.BaseID] = slices.DeleteFunc(c.children[obj.Seq.BaseID], func(v uint64) bool { return v == id })
		c.refTargetsLocked(obj.Seq, -1)
	default:
		return fmt.Errorf("catalog: id %d: unknown kind %d", id, obj.Kind)
	}
	c.ids, c.objs = slices.Delete(c.ids, i, i+1), slices.Delete(c.objs, i, i+1)
	return nil
}

// refTargetsLocked adds d to the reference counts of seq's Merge targets.
func (c *Catalog) refTargetsLocked(seq *editops.Sequence, d int) {
	for _, t := range seq.MergeTargets() {
		if c.targetRefs[t] += d; c.targetRefs[t] <= 0 {
			delete(c.targetRefs, t)
		}
	}
}

// HistogramOf returns a binary image's stored histogram. Together with
// DimsOf it makes *Catalog satisfy rules.TargetInfo, so the rule engine can
// resolve Merge targets straight from the catalog.
func (c *Catalog) HistogramOf(id uint64) (*histogram.Histogram, error) {
	obj, err := c.Binary(id)
	if err != nil {
		return nil, err
	}
	return obj.Hist, nil
}

// DimsOf returns a binary image's raster dimensions (see HistogramOf).
func (c *Catalog) DimsOf(id uint64) (int, int, error) {
	obj, err := c.Binary(id)
	if err != nil {
		return 0, 0, err
	}
	return obj.W, obj.H, nil
}

// AllIDs returns every object id sorted ascending, for deterministic dumps.
func (c *Catalog) AllIDs() []uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return slices.Clone(c.ids)
}
