package core

import (
	"fmt"

	"repro/internal/flatidx"
	"repro/internal/pagefile"
	"repro/internal/seq"
)

// FlatIndex adapts the flat snapshot + delta engine (internal/flatidx) to
// the Index seam: the one index every database serves from. Where the R-tree
// pays a page-pool round-trip and pointer chase per node, the flat engine
// walks one contiguous slab with implicit child offsets: reads are
// lock-free and allocation-free, writes land in a small delta, and a
// background merge repacks the slab and swaps it in atomically.
type FlatIndex struct {
	idx      *flatidx.Index
	pageSize int // page-equivalent unit for Pages()
}

// NewFlatIndex creates an empty in-memory flat index.
func NewFlatIndex(opts IndexOptions) (*FlatIndex, error) {
	opts = opts.withDefaults()
	return &FlatIndex{idx: flatidx.New(flatidx.Options{}), pageSize: opts.PageSize}, nil
}

// OpenFlatIndex loads a file Export wrote. A database never calls it: Open
// derives its index from the heap. cmd/bench/traced.go reads the image a
// database leaves at a clean close with it; both go once that replay packs
// its own index.
func OpenFlatIndex(path string, opts IndexOptions) (*FlatIndex, error) {
	opts = opts.withDefaults()
	idx, err := flatidx.Load(path, flatidx.Options{})
	if err != nil {
		return nil, err
	}
	return &FlatIndex{idx: idx, pageSize: opts.PageSize}, nil
}

// Export folds the delta into the slab and writes the slab, under a
// checksum, to path (flatidx.Save). Nothing in the database reads it back.
func (x *FlatIndex) Export(path string) error { return x.idx.Save(path) }

// Put adds the entries <features[i], ids[i]> as one batch: packed as the
// slab when the index holds nothing at all, else appended to the delta
// under one lock with one view publish (flatidx.Index.Put). It cannot
// refuse: the database calls it after the heap has taken the batch.
func (x *FlatIndex) Put(ids []seq.ID, features []seq.Feature) {
	x.idx.Put(entriesOf(ids, features))
}

// Drop removes the entry <f, id>, reporting whether it was present.
func (x *FlatIndex) Drop(id seq.ID, f seq.Feature) bool {
	return x.idx.Delete(flatidx.Entry{ID: id, Point: f.Vector()})
}

// Insert adds the entry <Feature(S), ID(S)> to the delta.
func (x *FlatIndex) Insert(id seq.ID, s seq.Sequence) error {
	f, err := seq.ExtractFeature(s)
	if err != nil {
		return err
	}
	x.idx.Insert(flatidx.Entry{ID: id, Point: f.Vector()})
	return nil
}

// Entries returns every live entry (snapshot minus tombstones plus delta).
func (x *FlatIndex) Entries() ([]IndexEntry, error) {
	flat := x.idx.Entries(nil)
	out := make([]IndexEntry, len(flat))
	for i, e := range flat {
		out[i] = IndexEntry{ID: e.ID, Point: e.Point}
	}
	return out, nil
}

// BulkLoad packs the index from all (id, feature) pairs at once. The index
// must be empty.
func (x *FlatIndex) BulkLoad(ids []seq.ID, features []seq.Feature) error {
	if len(ids) != len(features) {
		return fmt.Errorf("core: %d ids but %d features", len(ids), len(features))
	}
	return x.idx.BulkLoad(entriesOf(ids, features))
}

// entriesOf pairs each ID with its feature point.
func entriesOf(ids []seq.ID, features []seq.Feature) []flatidx.Entry {
	entries := make([]flatidx.Entry, len(ids))
	for i := range ids {
		entries[i] = flatidx.Entry{ID: ids[i], Point: features[i].Vector()}
	}
	return entries
}

// BulkLoadEnv is BulkLoad; envs is ignored (envelopes live in the EnvStore).
// cmd/bench/traced.go compiles against this; goes with ROADMAP item 1(d).
func (x *FlatIndex) BulkLoadEnv(ids []seq.ID, features []seq.Feature, envs []seq.PAAEnvelope) error {
	return x.BulkLoad(ids, features)
}

// queryRect mirrors FeatureIndex.RangeQuery's rect construction exactly:
// center ± ε per dimension, closed bounds.
func queryRect(fq seq.Feature, epsilon float64) (lo, hi [4]float64) {
	center := fq.Vector()
	for i := range center {
		lo[i] = center[i] - epsilon
		hi[i] = center[i] + epsilon
	}
	return lo, hi
}

// RangeQuery returns candidate IDs with Dtw-lb(S,Q) ≤ ε.
func (x *FlatIndex) RangeQuery(fq seq.Feature, epsilon float64) ([]seq.ID, error) {
	lo, hi := queryRect(fq, epsilon)
	flat := x.idx.AppendRange(nil, &lo, &hi)
	ids := make([]seq.ID, len(flat))
	for i := range flat {
		ids[i] = flat[i].ID
	}
	return ids, nil
}

// RangeQueryEntries is RangeQuery returning each candidate's stored point.
// Only cmd/bench's stage replay calls it; goes with ROADMAP item 1(d).
func (x *FlatIndex) RangeQueryEntries(fq seq.Feature, epsilon float64) ([]IndexEntry, error) {
	lo, hi := queryRect(fq, epsilon)
	flat := x.idx.AppendRange(nil, &lo, &hi)
	out := make([]IndexEntry, len(flat))
	for i, e := range flat {
		out[i] = IndexEntry{ID: e.ID, Point: e.Point}
	}
	return out, nil
}

// NearestWalk streams IDs in non-decreasing Dtw-lb (L∞) order. The search
// layer walks through NearestWalkKeyed; cmd/bench's stage replay calls this
// form.
func (x *FlatIndex) NearestWalk(fq seq.Feature, fn func(id seq.ID, lowerBound float64) bool) error {
	_, err := x.NearestWalkKeyed(fq, nil, fn)
	return err
}

// NearestWalkKeyed streams IDs in non-decreasing key order with the
// two-level sharpened frontier (see Index).
func (x *FlatIndex) NearestWalkKeyed(fq seq.Feature, sharpen func(id seq.ID) float64,
	fn func(id seq.ID, key float64) bool) (KNNWalkStats, error) {
	p := fq.Vector()
	ws := x.idx.NearestWalkKeyed(&p, sharpen, func(e flatidx.Entry, key float64) bool {
		return fn(e.ID, key)
	})
	return KNNWalkStats{Pushes: ws.Pushes, Repushes: ws.Repushes, EnvStops: ws.EnvStops}, nil
}

// Len returns the number of indexed sequences.
func (x *FlatIndex) Len() int { return x.idx.Len() }

// Pages reports the snapshot slab size in page-size units, so storage
// accounting (`IndexPages`) stays comparable across engines.
func (x *FlatIndex) Pages() int {
	return int((x.idx.SlabBytes() + int64(x.pageSize) - 1) / int64(x.pageSize))
}

// Stats returns zeroes: the flat engine has no buffer pool — reads touch
// the slab directly.
func (x *FlatIndex) Stats() pagefile.Stats { return pagefile.Stats{} }

// EngineStats reports snapshot generation, delta size, merge counters and
// the merge-duration histogram.
func (x *FlatIndex) EngineStats() IndexEngineStats {
	return IndexEngineStats{
		Engine:       EngineFlat,
		Generation:   x.idx.Generation(),
		DeltaEntries: x.idx.DeltaEntries(),
		Merges:       x.idx.Merges(),
		SlabBytes:    x.idx.SlabBytes(),
		MergeHist:    x.idx.MergeHist(),
	}
}

// CheckInvariants validates the packed snapshot (layout, containment) and
// the delta invariants, then the stored feature points themselves.
func (x *FlatIndex) CheckInvariants() error {
	if err := x.idx.CheckInvariants(); err != nil {
		return err
	}
	entries, err := x.Entries()
	if err != nil {
		return err
	}
	for _, e := range entries {
		f := seq.Feature{First: e.Point[0], Last: e.Point[1], Greatest: e.Point[2], Smallest: e.Point[3]}
		if !f.Valid() {
			return fmt.Errorf("core: index entry for sequence %d has invalid feature %+v (non-finite or inconsistent); the sequence is unreachable through the index", e.ID, f)
		}
	}
	return nil
}

// Close waits out any background merge. The index stays readable, so a
// caller may Export it afterwards.
func (x *FlatIndex) Close() error { return x.idx.Close() }
