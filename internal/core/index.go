package core

import (
	"fmt"

	"repro/internal/pagefile"
	"repro/internal/rtree"
	"repro/internal/seq"
)

// FeatureIndex is the paper's 4-dimensional index: an R-tree over the
// time-warping-invariant feature vectors
// (First(S), Last(S), Greatest(S), Smallest(S)) with Dtw-lb (= L∞ over
// those vectors) as its distance function (§4.3.1).
type FeatureIndex struct {
	tree *rtree.Tree
}

// EngineFlat is the index engine name IndexEngineStats.Engine reports: the
// flat snapshot + delta engine, an immutable packed tree with a mutable
// overlay and atomic snapshot swap (FlatIndex, internal/flatidx).
const EngineFlat = "flat"

// IndexOptions configures feature index construction.
type IndexOptions struct {
	// PageSize is the index page size (0 = pagefile.DefaultPageSize, the
	// paper's 1 KB). The flat index has no pages; it reports its size in
	// this unit.
	PageSize int
	// PoolPages is the R-tree's buffer pool capacity (0 = 64).
	PoolPages int
	// OnDiskPath, when non-empty, stores the R-tree in a page file at that
	// path instead of in memory. The flat index is always in memory.
	OnDiskPath string
}

func (o IndexOptions) withDefaults() IndexOptions {
	if o.PageSize == 0 {
		o.PageSize = pagefile.DefaultPageSize
	}
	if o.PoolPages == 0 {
		o.PoolPages = 64
	}
	return o
}

// NewFeatureIndex creates an empty feature index.
func NewFeatureIndex(opts IndexOptions) (*FeatureIndex, error) {
	opts = opts.withDefaults()
	var backend pagefile.Backend
	if opts.OnDiskPath != "" {
		fb, err := pagefile.CreateFile(opts.OnDiskPath, opts.PageSize)
		if err != nil {
			return nil, err
		}
		backend = fb
	} else {
		backend = pagefile.NewMemBackend(opts.PageSize)
	}
	pool, err := pagefile.NewPool(backend, opts.PageSize, opts.PoolPages)
	if err != nil {
		backend.Close()
		return nil, err
	}
	tree, err := rtree.Create(pool, 4, rtree.Options{})
	if err != nil {
		pool.Close()
		return nil, err
	}
	return &FeatureIndex{tree: tree}, nil
}

// OpenFeatureIndex opens a previously created on-disk feature index.
func OpenFeatureIndex(path string, opts IndexOptions) (*FeatureIndex, error) {
	opts = opts.withDefaults()
	fb, err := pagefile.OpenFile(path)
	if err != nil {
		return nil, err
	}
	pool, err := pagefile.NewPool(fb, fb.PageSize(), opts.PoolPages)
	if err != nil {
		fb.Close()
		return nil, err
	}
	tree, err := rtree.Open(pool)
	if err != nil {
		pool.Close()
		return nil, err
	}
	if tree.Dim() != 4 {
		tree.Close()
		return nil, fmt.Errorf("core: index at %s has dimension %d, want 4", path, tree.Dim())
	}
	return &FeatureIndex{tree: tree}, nil
}

// Insert adds the entry <Feature(S), ID(S)> for a sequence (§4.3.1).
func (fi *FeatureIndex) Insert(id seq.ID, s seq.Sequence) error {
	f, err := seq.ExtractFeature(s)
	if err != nil {
		return err
	}
	v := f.Vector()
	return fi.tree.Insert(rtree.NewPoint(v[:]), uint32(id))
}

// Delete removes a sequence's entry, reporting whether it was present.
func (fi *FeatureIndex) Delete(id seq.ID, s seq.Sequence) (bool, error) {
	f, err := seq.ExtractFeature(s)
	if err != nil {
		return false, err
	}
	v := f.Vector()
	return fi.tree.Delete(rtree.NewPoint(v[:]), uint32(id))
}

// IndexEntry is one <point, id> pair stored in the index, as reported by
// Entries.
type IndexEntry struct {
	ID    seq.ID
	Point [4]float64
}

// Entries returns every data entry the index currently holds, in tree
// order.
func (fi *FeatureIndex) Entries() ([]IndexEntry, error) {
	var out []IndexEntry
	err := fi.tree.Walk(func(_ int, leaf bool, _ rtree.Rect, entries []rtree.Entry) error {
		if !leaf {
			return nil
		}
		for _, e := range entries {
			var pt [4]float64
			copy(pt[:], e.Rect.Lo)
			out = append(out, IndexEntry{ID: seq.ID(e.Child), Point: pt})
		}
		return nil
	})
	return out, err
}

// BulkLoad builds the index from all (id, feature) pairs at once using STR
// packing. The index must be empty.
func (fi *FeatureIndex) BulkLoad(ids []seq.ID, features []seq.Feature) error {
	if len(ids) != len(features) {
		return fmt.Errorf("core: %d ids but %d features", len(ids), len(features))
	}
	entries := make([]rtree.Entry, len(ids))
	for i := range ids {
		v := features[i].Vector()
		entries[i] = rtree.Entry{Rect: rtree.NewPoint(v[:]), Child: uint32(ids[i])}
	}
	return fi.tree.BulkLoad(entries)
}

// RangeQuery performs the paper's Step-2: a square range query with
// Feature(Q) as the center and ε as the per-dimension half-extent, returning
// candidate sequence IDs. Exactly the sequences with
// Dtw-lb(S,Q) ≤ ε are returned.
func (fi *FeatureIndex) RangeQuery(fq seq.Feature, epsilon float64) ([]seq.ID, error) {
	center := fq.Vector()
	lo := make([]float64, 4)
	hi := make([]float64, 4)
	for i := range center {
		lo[i] = center[i] - epsilon
		hi[i] = center[i] + epsilon
	}
	query, err := rtree.NewRect(lo, hi)
	if err != nil {
		return nil, err
	}
	var ids []seq.ID
	err = fi.tree.Search(query, func(_ rtree.Rect, id uint32) bool {
		ids = append(ids, seq.ID(id))
		return true
	})
	return ids, err
}

// RangeQueryEntries is RangeQuery returning each candidate's stored point
// alongside its ID. Only cmd/bench's stage replay calls it; goes with
// ROADMAP item 1(d).
func (fi *FeatureIndex) RangeQueryEntries(fq seq.Feature, epsilon float64) ([]IndexEntry, error) {
	center := fq.Vector()
	lo := make([]float64, 4)
	hi := make([]float64, 4)
	for i := range center {
		lo[i] = center[i] - epsilon
		hi[i] = center[i] + epsilon
	}
	query, err := rtree.NewRect(lo, hi)
	if err != nil {
		return nil, err
	}
	var entries []IndexEntry
	err = fi.tree.Search(query, func(r rtree.Rect, id uint32) bool {
		var pt [4]float64
		copy(pt[:], r.Lo)
		entries = append(entries, IndexEntry{ID: seq.ID(id), Point: pt})
		return true
	})
	return entries, err
}

// NearestWalk streams sequence IDs in non-decreasing Dtw-lb order from the
// query feature. The L∞ norm makes the stream order consistent with the
// lower-bound metric, enabling exact k-NN refinement. The search layer walks
// through NearestWalkKeyed; cmd/bench's stage replay calls this form.
func (fi *FeatureIndex) NearestWalk(fq seq.Feature, fn func(id seq.ID, lowerBound float64) bool) error {
	center := fq.Vector()
	return fi.tree.NearestWalk(center[:], rtree.NormLInf, func(n rtree.Neighbor) bool {
		return fn(seq.ID(n.Entry.Child), n.Dist)
	})
}

// NearestWalkKeyed streams IDs in non-decreasing key order with the
// two-level sharpened frontier (see Index). With nil sharpen the stream
// reduces to the NearestWalk order.
func (fi *FeatureIndex) NearestWalkKeyed(fq seq.Feature, sharpen func(id seq.ID) float64,
	fn func(id seq.ID, key float64) bool) (KNNWalkStats, error) {
	center := fq.Vector()
	var sh func(e *rtree.Entry) float64
	if sharpen != nil {
		sh = func(e *rtree.Entry) float64 { return sharpen(seq.ID(e.Child)) }
	}
	ws, err := fi.tree.NearestWalkKeyed(center[:], rtree.NormLInf, sh, func(n rtree.Neighbor) bool {
		return fn(seq.ID(n.Entry.Child), n.Dist)
	})
	return KNNWalkStats{Pushes: ws.Pushes, Repushes: ws.Repushes, EnvStops: ws.EnvStops}, err
}

// Len returns the number of indexed sequences.
func (fi *FeatureIndex) Len() int { return fi.tree.Len() }

// Pages returns the number of pages the index occupies.
func (fi *FeatureIndex) Pages() int { return fi.tree.NodePages() }

// Stats exposes the index buffer pool counters.
func (fi *FeatureIndex) Stats() pagefile.Stats { return fi.tree.Stats() }

// CheckInvariants validates the stored feature points and the underlying
// R-tree structure. The point check runs first: an entry whose feature is
// not Valid (a NaN or ±Inf component, or Smallest/Greatest out of order)
// is invisible to MBR comparisons — the sequence can never be returned by
// an index query, a silent false dismissal — and it also degrades the
// structural check's MBR arithmetic, so diagnosing it by name beats the
// cryptic rect-mismatch error the tree walk would produce. Databases
// poisoned by non-finite inserts predating input validation surface here.
func (fi *FeatureIndex) CheckInvariants() error {
	entries, err := fi.Entries()
	if err != nil {
		return err
	}
	for _, e := range entries {
		f := seq.Feature{First: e.Point[0], Last: e.Point[1], Greatest: e.Point[2], Smallest: e.Point[3]}
		if !f.Valid() {
			return fmt.Errorf("core: index entry for sequence %d has invalid feature %+v (non-finite or inconsistent); the sequence is unreachable through the index", e.ID, f)
		}
	}
	return fi.tree.CheckInvariants()
}

// Close flushes and releases the index.
func (fi *FeatureIndex) Close() error { return fi.tree.Close() }
