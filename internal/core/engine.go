package core

import (
	"repro/internal/obs"
	"repro/internal/pagefile"
	"repro/internal/seq"
)

// Index is the feature-index seam the search and storage layers program
// against. FlatIndex (immutable packed snapshot + mutable delta,
// internal/flatidx) is the one a database serves from; FeatureIndex (the
// paper's paged Guttman R-tree) implements it as the baseline the
// experiments, the benchmark's ledger and the engine oracle walk. Both index
// the paper's 4-d feature vectors under the Dtw-lb (L∞) metric and are
// required to produce bit-identical query results.
type Index interface {
	Insert(id seq.ID, s seq.Sequence) error
	InsertFeature(id seq.ID, f seq.Feature) error
	Delete(id seq.ID, s seq.Sequence) (bool, error)
	DeleteEntry(id seq.ID, point [4]float64) (bool, error)
	Entries() ([]IndexEntry, error)
	BulkLoad(ids []seq.ID, features []seq.Feature) error
	RangeQuery(fq seq.Feature, epsilon float64) ([]seq.ID, error)
	// NearestWalkKeyed streams IDs in non-decreasing key order from a
	// best-first walk with a two-level sharpened frontier: xform (nil =
	// identity) is a monotone transform applied to every L∞ mindist so the
	// stream is keyed in the caller's comparable space; sharpen (nil = plain
	// mindist ordering) maps a surfacing candidate's ID to an additional
	// lower bound in that space (the search layer resolves it from the
	// EnvStore), and the candidate is emitted at the max of the two. fn
	// returning false stops the walk.
	NearestWalkKeyed(fq seq.Feature, xform func(float64) float64,
		sharpen func(id seq.ID) float64, fn func(id seq.ID, key float64) bool) (KNNWalkStats, error)
	Len() int
	Pages() int
	Stats() pagefile.Stats
	ResetStats()
	EngineStats() IndexEngineStats
	CheckInvariants() error
	Flush() error
	Close() error
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

// IndexEngineStats describes an index engine instance for /stats and
// /metrics. The snapshot/delta fields are zero for the R-tree baseline.
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
	// MmapBytes is the size of the snapshot's live file mapping, 0 when the
	// snapshot is heap-backed (summed across shards).
	MmapBytes int64 `json:"mmap_bytes"`
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
	s.MmapBytes += other.MmapBytes
	s.MergeHist.Add(other.MergeHist)
}

// EngineStats identifies the R-tree baseline (no snapshot/delta machinery).
func (fi *FeatureIndex) EngineStats() IndexEngineStats {
	return IndexEngineStats{Engine: EngineGuttman}
}

var (
	_ Index = (*FeatureIndex)(nil)
	_ Index = (*FlatIndex)(nil)
)
