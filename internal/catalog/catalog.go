// Package catalog maintains the object metadata of the augmented image
// database: binary (raster) images with their extracted histograms, edited
// images stored as operation sequences, and the base↔edited connections the
// paper uses to return an edited image's original alongside it. The catalog
// holds no pixels; rasters live in the blob store.
package catalog

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
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
// a single writer. Persistence is layered on top by internal/core using the
// blob store.
type Catalog struct {
	mu       sync.RWMutex
	nextID   uint64              // guarded by mu
	objects  map[uint64]*Object  // guarded by mu
	binaries []uint64            // binary ids, ascending; guarded by mu
	edited   []uint64            // edited ids, ascending; guarded by mu
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
		objects:    make(map[uint64]*Object),
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
	c.objects[id] = &Object{ID: id, Kind: KindBinary, Name: name, W: w, H: h, Hist: hist}
	c.binaries = insertID(c.binaries, id)
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
	base, ok := c.objects[seq.BaseID]
	if !ok || base.Kind != KindBinary {
		return 0, fmt.Errorf("catalog: base %d: %w", seq.BaseID, ErrNotFound)
	}
	for _, t := range seq.MergeTargets() {
		tgt, ok := c.objects[t]
		if !ok || tgt.Kind != KindBinary {
			return 0, fmt.Errorf("catalog: merge target %d: %w", t, ErrNotFound)
		}
	}
	id, err := c.claimIDLocked(id)
	if err != nil {
		return 0, err
	}
	c.objects[id] = &Object{ID: id, Kind: KindEdited, Name: name, Seq: seq, Widening: widening}
	c.edited = insertID(c.edited, id)
	c.children[seq.BaseID] = append(c.children[seq.BaseID], id)
	for _, t := range seq.MergeTargets() {
		c.targetRefs[t]++
	}
	return id, nil
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
	if _, exists := c.objects[id]; exists {
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
	obj, ok := c.objects[id]
	if !ok {
		return nil, fmt.Errorf("catalog: id %d: %w", id, ErrNotFound)
	}
	return obj, nil
}

// Binary returns a binary object by id, failing on edited objects.
func (c *Catalog) Binary(id uint64) (*Object, error) {
	obj, err := c.Get(id)
	if err != nil {
		return nil, err
	}
	if obj.Kind != KindBinary {
		return nil, fmt.Errorf("catalog: id %d is %s, want binary", id, obj.Kind)
	}
	return obj, nil
}

// Edited returns an edited object by id, failing on binary objects.
func (c *Catalog) Edited(id uint64) (*Object, error) {
	obj, err := c.Get(id)
	if err != nil {
		return nil, err
	}
	if obj.Kind != KindEdited {
		return nil, fmt.Errorf("catalog: id %d is %s, want edited", id, obj.Kind)
	}
	return obj, nil
}

// Binaries returns the binary image ids in ascending order (copied). Ids
// are allocated sequentially, so this is insertion order unless an insert
// pinned an id below the current tail.
func (c *Catalog) Binaries() []uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]uint64, len(c.binaries))
	copy(out, c.binaries)
	return out
}

// EditedIDs returns the edited image ids in ascending order (copied); see
// Binaries.
func (c *Catalog) EditedIDs() []uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]uint64, len(c.edited))
	copy(out, c.edited)
	return out
}

// ObjectsAfter returns up to n objects whose ids are greater than after, in
// ascending id order, binary and edited images merged — the id-ordered
// candidate source of paged queries, fetched under one lock acquisition.
// Fewer than n objects means the catalog has no more.
func (c *Catalog) ObjectsAfter(after uint64, n int) []*Object {
	if after == math.MaxUint64 {
		return nil
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	b, _ := slices.BinarySearch(c.binaries, after+1)
	e, _ := slices.BinarySearch(c.edited, after+1)
	bin, ed := c.binaries[b:], c.edited[e:]
	out := make([]*Object, 0, min(n, len(bin)+len(ed)))
	for len(out) < n && len(bin)+len(ed) > 0 {
		if len(ed) == 0 || (len(bin) > 0 && bin[0] < ed[0]) {
			out, bin = append(out, c.objects[bin[0]]), bin[1:]
		} else {
			out, ed = append(out, c.objects[ed[0]]), ed[1:]
		}
	}
	return out
}

// Objects returns the objects with the given ids, in that order, fetched
// under one lock acquisition — how a query answer is hydrated. An id that is
// no longer in the catalog (deleted since the query chose it) is skipped, so
// the result may be shorter than ids.
func (c *Catalog) Objects(ids []uint64) []*Object {
	out := make([]*Object, 0, len(ids))
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, id := range ids {
		if obj, ok := c.objects[id]; ok {
			out = append(out, obj)
		}
	}
	return out
}

// EditedOf returns the edited images derived from a base, in insertion
// order (copied).
func (c *Catalog) EditedOf(baseID uint64) []uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	kids := c.children[baseID]
	out := make([]uint64, len(kids))
	copy(out, kids)
	return out
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
	return len(c.binaries), len(c.edited)
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
	s := Stats{Binaries: len(c.binaries), Edited: len(c.edited)}
	s.Images = s.Binaries + s.Edited
	totalOps := 0
	for _, id := range c.edited {
		obj := c.objects[id]
		totalOps += len(obj.Seq.Ops)
		if obj.Widening {
			s.WideningOnly++
		} else {
			s.NonWidening++
		}
	}
	if s.Edited > 0 {
		s.AvgOpsPerEdited = float64(totalOps) / float64(s.Edited)
	}
	return s
}

// RestoreObject reinstates an object with its original id when reopening a
// persisted database. Objects may arrive in any order as long as bases
// precede the edited images referencing them; RestoreObject enforces the
// same referential checks as the Add methods.
func (c *Catalog) RestoreObject(obj *Object) error {
	if obj == nil || obj.ID == 0 {
		return errors.New("catalog: restore of nil or id-0 object")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.objects[obj.ID]; exists {
		return fmt.Errorf("catalog: restore: id %d already present", obj.ID)
	}
	switch obj.Kind {
	case KindBinary:
		if obj.Hist == nil || obj.W <= 0 || obj.H <= 0 {
			return fmt.Errorf("catalog: restore binary %d: incomplete", obj.ID)
		}
	case KindEdited:
		if obj.Seq == nil {
			return fmt.Errorf("catalog: restore edited %d: missing sequence", obj.ID)
		}
		base, ok := c.objects[obj.Seq.BaseID]
		if !ok || base.Kind != KindBinary {
			return fmt.Errorf("catalog: restore edited %d: base %d: %w", obj.ID, obj.Seq.BaseID, ErrNotFound)
		}
	default:
		return fmt.Errorf("catalog: restore %d: unknown kind %d", obj.ID, obj.Kind)
	}
	c.objects[obj.ID] = obj
	if obj.Kind == KindBinary {
		c.binaries = insertID(c.binaries, obj.ID)
	} else {
		c.edited = insertID(c.edited, obj.ID)
		c.children[obj.Seq.BaseID] = append(c.children[obj.Seq.BaseID], obj.ID)
		for _, tgt := range obj.Seq.MergeTargets() {
			c.targetRefs[tgt]++
		}
	}
	if obj.ID >= c.nextID {
		c.nextID = obj.ID + 1
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
	obj, ok := c.objects[id]
	if !ok || obj.Kind != KindEdited {
		return fmt.Errorf("catalog: edited id %d: %w", id, ErrNotFound)
	}
	if seq.BaseID != obj.Seq.BaseID {
		return fmt.Errorf("catalog: update would re-base %d from %d to %d", id, obj.Seq.BaseID, seq.BaseID)
	}
	for _, t := range seq.MergeTargets() {
		tgt, ok := c.objects[t]
		if !ok || tgt.Kind != KindBinary {
			return fmt.Errorf("catalog: merge target %d: %w", t, ErrNotFound)
		}
	}
	for _, t := range obj.Seq.MergeTargets() {
		if c.targetRefs[t]--; c.targetRefs[t] <= 0 {
			delete(c.targetRefs, t)
		}
	}
	for _, t := range seq.MergeTargets() {
		c.targetRefs[t]++
	}
	// Copy-on-write: concurrent readers hold *Object pointers from Get and
	// must keep seeing a consistent (old) version.
	updated := *obj
	updated.Seq = seq
	updated.Widening = widening
	c.objects[id] = &updated
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
	obj, ok := c.objects[id]
	if !ok {
		return fmt.Errorf("catalog: id %d: %w", id, ErrNotFound)
	}
	switch obj.Kind {
	case KindBinary:
		if len(c.children[id]) > 0 {
			return fmt.Errorf("catalog: id %d has %d edited versions: %w", id, len(c.children[id]), ErrInUse)
		}
		if c.targetRefs[id] > 0 {
			return fmt.Errorf("catalog: id %d is a merge target of %d sequences: %w", id, c.targetRefs[id], ErrInUse)
		}
		c.binaries = removeID(c.binaries, id)
		delete(c.children, id)
	case KindEdited:
		c.edited = removeID(c.edited, id)
		c.children[obj.Seq.BaseID] = removeID(c.children[obj.Seq.BaseID], id)
		for _, t := range obj.Seq.MergeTargets() {
			if c.targetRefs[t]--; c.targetRefs[t] <= 0 {
				delete(c.targetRefs, t)
			}
		}
	default:
		return fmt.Errorf("catalog: id %d: unknown kind %d", id, obj.Kind)
	}
	delete(c.objects, id)
	return nil
}

// insertID adds id to an ascending id list: an append when it exceeds the
// tail (every automatically allocated id does), a binary-search insert for a
// pinned id below it. A live catalog therefore lists ids exactly as its
// reopened self would.
func insertID(ids []uint64, id uint64) []uint64 {
	if n := len(ids); n == 0 || ids[n-1] < id {
		return append(ids, id)
	}
	i, _ := slices.BinarySearch(ids, id)
	return slices.Insert(ids, i, id)
}

// removeSortedID removes id from an ascending id list.
func removeSortedID(ids []uint64, id uint64) []uint64 {
	if i, found := slices.BinarySearch(ids, id); found {
		return slices.Delete(ids, i, i+1)
	}
	return ids
}

// removeID removes the first occurrence of id from an unordered list.
func removeID(ids []uint64, id uint64) []uint64 {
	for i, v := range ids {
		if v == id {
			return append(ids[:i], ids[i+1:]...)
		}
	}
	return ids
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
	out := make([]uint64, 0, len(c.objects))
	for id := range c.objects {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
