// Package core implements the paper's primary contribution — the
// TW-Sim-Search method (a 4-dimensional feature index queried through the
// lower-bound metric Dtw-lb) — together with the three baselines it is
// evaluated against (Naive-Scan, LB-Scan, ST-Filter) and the FastMap method
// it contrasts with, all over the shared storage substrates.
package core

import (
	"fmt"
	"time"

	"repro/internal/pagefile"
	"repro/internal/seq"
)

// CostModel converts buffer pool misses into modeled disk time so elapsed
// time comparisons are independent of the host machine. The default models
// the paper's platform (§5.1: a 9.5 ms-seek disk). Sequential misses (the
// next physical page after the previous miss, as a scan produces) are
// charged transfer cost only; random misses pay a full seek + transfer.
type CostModel struct {
	// Seek is charged for every random (non-sequential) page miss.
	Seek time.Duration
	// Transfer is charged for every page miss, sequential or not.
	Transfer time.Duration
}

// DefaultCostModel mirrors the paper's 9.5 ms-seek disk with a ~10 MB/s
// transfer rate (≈ 0.1 ms per 1 KB page).
var DefaultCostModel = CostModel{Seek: 9500 * time.Microsecond, Transfer: 100 * time.Microsecond}

// QueryStats describes the work one similarity search performed.
type QueryStats struct {
	// Candidates is the size of the candidate set after the filtering
	// step (the numerator of the paper's candidate ratio, Experiment 1).
	Candidates int
	// Results is the number of qualifying sequences.
	Results int
	// DTWCalls counts candidates whose exact distance refinement decided
	// (early-abandoned evaluations included): by the DP, or, for an
	// unbanded L∞ query, by the bit-parallel decision at LB_Kim, which
	// settles Dtw = LB_Kim without running the DP. Counting those here,
	// not in a counter of their own, keeps the conservation law and the
	// /metrics series the same whichever route decided. Candidates
	// dismissed by a cascade tier — or whose heap record turned out to be
	// dangling — are not counted.
	DTWCalls int
	// LowerBoundCalls counts scan-time lower-bound evaluations (LB-Scan).
	LowerBoundCalls int
	// LBPAAPruned counts candidates the cascade dismissed before the heap
	// fetch, on the candidate's stored PAA-reduced envelope (EnvStore):
	// LB_PAA for a banded query, the decision at ε over the 16 stored
	// segments for an unbanded L∞ one (a candidate the decision after the
	// fetch would have counted in CorridorPruned).
	LBPAAPruned int
	// LBKeoghPruned counts candidates dismissed by LB_Keogh after the fetch,
	// on the banded envelope for banded L∞ queries over equal-length pairs.
	// Zero for unbanded queries and under an additive base, which the
	// cascade does not prune.
	LBKeoghPruned int
	// CorridorPruned counts candidates dismissed inside the DP: the fused
	// DP's alive region died before the final cell, proving
	// Dtw > epsilon while visiting only the window around the
	// within-cutoff part of the matrix (this subsumes the O(1) endpoint pre-check and everything a
	// dense DP would have early-abandoned). For an unbanded L∞ query the
	// bit-parallel decision makes these dismissals: the same candidates.
	CorridorPruned int
	// DTWAbandoned counts dense DP invocations that early-abandoned
	// (included in DTWCalls). With the cascade enabled those rejections
	// surface as CorridorPruned instead, so this is nonzero mainly when
	// the cascade is disabled.
	DTWAbandoned int
	// KNNFrontierPushes counts k-NN walk frontier pushes (nodes, items, and
	// envelope re-keys) across both engines' keyed walks.
	KNNFrontierPushes int
	// KNNRepushes counts k-NN candidates that re-entered the walk frontier
	// with an envelope-sharpened priority.
	KNNRepushes int
	// KNNEnvCutoffs counts k-NN walks stopped on an envelope-raised key —
	// walks the ordering tier ended earlier than the mindist alone would
	// have.
	KNNEnvCutoffs int
	// TreeNodes counts suffix tree nodes visited (ST-Filter).
	TreeNodes int
	// TreePages is the modeled number of suffix-tree pages a disk-resident
	// tree of this size would have touched (the tree itself is memory
	// resident; the paper's was not, and its size is exactly why ST-Filter
	// loses on whole matching). Charged as random misses by Modeled.
	TreePages int64
	// DataReads/DataMisses/DataSeqMisses are the sequence heap file's
	// buffer pool counters for this query.
	DataReads, DataMisses, DataSeqMisses int64
	// IndexReads/IndexMisses/IndexSeqMisses are the index buffer pool
	// counters (R-tree based methods).
	IndexReads, IndexMisses, IndexSeqMisses int64
	// Wall is the measured wall-clock duration.
	Wall time.Duration
	// FilterWall is the wall time of the filtering phase (feature
	// extraction plus the index range query for TW-Sim-Search; zero for
	// methods without a separate filter phase). Together with RefineWall it
	// feeds the serving layer's per-phase latency histograms.
	FilterWall time.Duration
	// RefineWall is the wall time of the refinement phase (candidate
	// fetches, the lower-bound cascade, and exact DTW; for k-NN it covers
	// the whole index walk, whose filtering and refinement interleave).
	RefineWall time.Duration
}

// Modeled returns the modeled elapsed time: measured wall time plus the
// cost-model disk charge. Sequential misses pay transfer only; random
// misses (and modeled suffix-tree pages) pay seek + transfer.
func (s QueryStats) Modeled(cm CostModel) time.Duration {
	misses := s.DataMisses + s.IndexMisses
	seq := s.DataSeqMisses + s.IndexSeqMisses
	random := misses - seq + s.TreePages
	return s.Wall + time.Duration(random)*cm.Seek + time.Duration(misses+s.TreePages)*cm.Transfer
}

// Add accumulates other into s (used to aggregate over query batches).
func (s *QueryStats) Add(other QueryStats) {
	s.Candidates += other.Candidates
	s.Results += other.Results
	s.DTWCalls += other.DTWCalls
	s.LowerBoundCalls += other.LowerBoundCalls
	s.LBPAAPruned += other.LBPAAPruned
	s.LBKeoghPruned += other.LBKeoghPruned
	s.CorridorPruned += other.CorridorPruned
	s.DTWAbandoned += other.DTWAbandoned
	s.KNNFrontierPushes += other.KNNFrontierPushes
	s.KNNRepushes += other.KNNRepushes
	s.KNNEnvCutoffs += other.KNNEnvCutoffs
	s.TreeNodes += other.TreeNodes
	s.TreePages += other.TreePages
	s.DataReads += other.DataReads
	s.DataMisses += other.DataMisses
	s.DataSeqMisses += other.DataSeqMisses
	s.IndexReads += other.IndexReads
	s.IndexMisses += other.IndexMisses
	s.IndexSeqMisses += other.IndexSeqMisses
	s.Wall += other.Wall
	s.FilterWall += other.FilterWall
	s.RefineWall += other.RefineWall
}

// addKNNWalk folds one index walk's frontier counters into s.
func (s *QueryStats) addKNNWalk(ws KNNWalkStats) {
	s.KNNFrontierPushes += int(ws.Pushes)
	s.KNNRepushes += int(ws.Repushes)
	s.KNNEnvCutoffs += int(ws.EnvStops)
}

// CandidateRatio returns Candidates divided by the database size n
// (Experiment 1's metric).
func (s QueryStats) CandidateRatio(n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(s.Candidates) / float64(n)
}

// String renders a compact summary.
func (s QueryStats) String() string {
	return fmt.Sprintf("cand=%d res=%d dtw=%d(ab=%d) lb=%d pruned=%d/%d/%d nodes=%d dataIO=%d/%d idxIO=%d/%d wall=%v",
		s.Candidates, s.Results, s.DTWCalls, s.DTWAbandoned, s.LowerBoundCalls,
		s.LBPAAPruned, s.LBKeoghPruned, s.CorridorPruned, s.TreeNodes,
		s.DataReads, s.DataMisses, s.IndexReads, s.IndexMisses, s.Wall)
}

// StorageStats is a point-in-time snapshot of the storage-layer counters:
// the heap file's buffer pool (the flat index has no pool: it is walked in
// place) and the memory the envelope store holds. The snapshot is wait-free
// and weakly consistent — good for monitoring ratios, not for exact
// accounting.
type StorageStats struct {
	Data pagefile.Stats
	// EnvelopeBytes is EnvStore.Bytes: the packed PAA envelopes held in
	// memory, one record per ID the store's chunks cover.
	EnvelopeBytes int64
}

// Add accumulates other into s (used to aggregate across shards).
func (s *StorageStats) Add(other StorageStats) {
	s.Data.Add(other.Data)
	s.EnvelopeBytes += other.EnvelopeBytes
}

// Match is one qualifying sequence with its exact time warping distance.
type Match struct {
	ID   seq.ID
	Dist float64
}

// Result is the outcome of one similarity search.
type Result struct {
	Matches []Match
	Stats   QueryStats
	// RequestID is a process-unique query identifier the public layer
	// stamps on every search. The serving layer returns it to the client
	// and the slow-query log records it, so a slow request in the log can
	// be joined with the response that produced it.
	RequestID uint64
	// CacheHit reports that the matches were served from the whole-query
	// result cache: Stats then carries zero work counters (no index walk,
	// no fetch, no DTW ran — the conservation law holds trivially as 0=0)
	// and only Results and Wall are populated.
	CacheHit bool
}

// IDs returns the matched sequence IDs in result order.
func (r *Result) IDs() []seq.ID {
	out := make([]seq.ID, len(r.Matches))
	for i, m := range r.Matches {
		out[i] = m.ID
	}
	return out
}
