package core

import (
	"repro/internal/obs"
	"repro/internal/pagefile"
	"repro/internal/seq"
)

// Index is the read seam TW-Sim-Search walks: the paper's square range
// query, the keyed k-NN walk and the index's buffer counters. FlatIndex
// (immutable packed snapshot + mutable delta, internal/flatidx) is the one
// index a database serves from and writes through; FeatureIndex (the
// paper's paged Guttman R-tree) implements it so that cmd/experiments runs
// the paper's method over the R-tree and this package's engine oracle
// compares the two index against index. Both index the paper's 4-d feature
// vectors under the Dtw-lb (L∞) metric and are required to produce
// bit-identical query results.
type Index interface {
	RangeQuery(fq seq.Feature, epsilon float64) ([]seq.ID, error)
	// NearestWalkKeyed streams IDs in non-decreasing key order from a
	// best-first walk with a two-level sharpened frontier: the key is the
	// L∞ mindist; sharpen (nil = plain mindist ordering) maps a surfacing
	// candidate's ID to an additional lower bound (the search layer
	// resolves it from the EnvStore), and the candidate is emitted at the
	// max of the two. fn returning false stops the walk.
	NearestWalkKeyed(fq seq.Feature, sharpen func(id seq.ID) float64,
		fn func(id seq.ID, key float64) bool) (KNNWalkStats, error)
	Stats() pagefile.Stats
}

// KNNWalkStats counts one k-NN walk's frontier work, engine-independent
// (both engines' walks report the same three counters).
type KNNWalkStats struct {
	// Pushes is the total number of frontier pushes (nodes, items, and
	// envelope re-keys).
	Pushes int64
	// Repushes counts items that re-entered the frontier with an
	// envelope-sharpened priority.
	Repushes int64
	// EnvStops is 1 when the walk was stopped on an item whose key had been
	// raised above its mindist by the envelope bound — the ordering tier
	// ended the walk earlier than the mindist alone would have.
	EnvStops int64
}

// IndexEngineStats describes a database's flat index for /stats and
// /metrics.
type IndexEngineStats struct {
	// Engine is the engine name: EngineFlat for every database.
	Engine string `json:"engine"`
	// Generation is the current snapshot generation (summed across shards).
	Generation uint64 `json:"generation"`
	// DeltaEntries is the current delta size: adds + tombstones awaiting a
	// merge.
	DeltaEntries int `json:"delta_entries"`
	// Merges is the number of delta merges performed.
	Merges int64 `json:"merges"`
	// SlabBytes is the packed snapshot size in bytes.
	SlabBytes int64 `json:"slab_bytes"`
	// MergeHist is the merge-duration histogram; it feeds the
	// twsim_index_merge_seconds series.
	MergeHist obs.HistogramData `json:"-"`
}

// Add accumulates other into s (shard aggregation).
func (s *IndexEngineStats) Add(other IndexEngineStats) {
	s.Engine = other.Engine
	s.Generation += other.Generation
	s.DeltaEntries += other.DeltaEntries
	s.Merges += other.Merges
	s.SlabBytes += other.SlabBytes
	s.MergeHist.Add(other.MergeHist)
}

var (
	_ Index = (*FeatureIndex)(nil)
	_ Index = (*FlatIndex)(nil)
)
