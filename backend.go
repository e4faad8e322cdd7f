package twsim

import (
	"context"

	"repro/internal/core"
	"repro/internal/seq"
)

// Backend is the operation surface shared by the single-database engine
// (*DB) and the sharded engine (*ShardedDB). Servers and tools written
// against Backend run unchanged on either — and it is the seam a future
// multi-node engine will slot into.
//
// Concurrency: both implementations are safe for fully concurrent use.
// A *DB owns one reader/writer lock (readers share, a writer excludes
// everything on that database; see DB); a *ShardedDB adds none of its own —
// each shard is a *DB, so a writer excludes only its target shard.
type Backend interface {
	// Add stores one sequence and returns its ID.
	Add(values []float64) (ID, error)
	// AddBatch stores a batch and returns every assigned ID in input
	// order. Unlike DB.AddAll, the IDs are not promised to be consecutive:
	// a sharded backend interleaves them across shards.
	AddBatch(values [][]float64) ([]ID, error)
	// Remove deletes a sequence, reporting whether it was present.
	Remove(id ID) (bool, error)
	// Get fetches a stored sequence.
	Get(id ID) ([]float64, error)
	// SearchCtx runs the paper's range similarity query under an explicit
	// Sakoe–Chiba band half-width (0 = the paper's unconstrained distance,
	// ≥ 1 = banded, negative = error; pass DefaultBand() for the backend's
	// configured default), governed by a context: a done context (client
	// disconnect, deadline) abandons the query at its next candidate
	// boundary and returns the context's error; Options.QueryDeadline, when
	// set, caps execution time on top. A nil context never cancels.
	SearchCtx(ctx context.Context, query []float64, epsilon float64, band int) (*Result, error)
	// NearestKCtx runs the exact k-NN extension under an explicit band and
	// a context (see SearchCtx), returning the full Result — matches plus
	// work counters and the request ID — so serving layers can export k-NN
	// traffic into the same metrics as range searches.
	NearestKCtx(ctx context.Context, query []float64, k, band int) (*Result, error)
	// DefaultBand returns the band half-width queries run under when no
	// per-call override is given (Options.Band) — serving layers use it to
	// resolve requests that omit the band.
	DefaultBand() int
	// ResultCacheStats snapshots the whole-query result cache counters
	// (all zero when the cache is disabled).
	ResultCacheStats() core.ResultCacheStats
	// BuildSubseqIndex indexes sliding windows of the current contents for
	// subsequence matching (per shard, fanned out, for a sharded backend).
	BuildSubseqIndex(windowLens []int, step int) (*SubseqIndex, error)
	// Len returns the number of live sequences.
	Len() int
	// DataBytes returns the logical size of the stored data.
	DataBytes() int64
	// IndexPages returns the feature index size in pages.
	IndexPages() int
	// LastRepair reports what the last Repair rebuilt.
	LastRepair() RepairStats
	// StorageStats snapshots the data heap's buffer pool counters (summed
	// over shards for a sharded backend).
	StorageStats() StorageStats
	// IndexEngineStats reports which feature-index engine backs the store
	// and, for the flat engine, its snapshot/delta counters (summed over
	// shards for a sharded backend).
	IndexEngineStats() core.IndexEngineStats
	// OpenDiagnostics returns the human-readable notes recorded while
	// opening the database (WAL replay, stray files of older versions and
	// stale temp files removed). Empty for a clean open.
	OpenDiagnostics() []string
	// WALStats snapshots the write-ahead-log counters (summed over shards
	// for a sharded backend; all zero when the WAL is disabled).
	WALStats() WALStats
	// Verify runs the full heap/index integrity check.
	Verify() error
	// Flush persists all state.
	Flush() error
	// Close flushes and releases the database.
	Close() error
}

var (
	_ Backend = (*DB)(nil)
	_ Backend = (*ShardedDB)(nil)
)

// AddBatch stores a batch of sequences and returns the assigned IDs in
// input order — the Backend form of AddAll (which see for atomicity). For
// a single database the IDs are consecutive.
func (db *DB) AddBatch(values [][]float64) ([]ID, error) {
	first, err := db.AddAll(values)
	if err != nil {
		return nil, err
	}
	ids := make([]ID, len(values))
	for i := range ids {
		ids[i] = first + ID(i)
	}
	return ids, nil
}

// NearestKStatsBandCtx is the per-partition k-NN walk: explicit context
// (nil never cancels; a done context abandons the walk at its next
// candidate boundary), Sakoe–Chiba band half-width (0 = unconstrained) and
// optional cross-partition shared bound. Concurrent walks over disjoint
// partitions publishing into one bound prune each other, and the merged,
// re-sorted, truncated-to-k union of their survivors equals the
// unpartitioned answer — so under a bound the survivors (at most k,
// ascending) need not be this partition's own true top-k; nil means no
// bound. The walk bypasses the result cache, the deadline and the
// slow-query log, which act once at the top level (NearestKCtx). It is the
// form the sharded engine calls per shard (shard.Store), so k-NN work shows
// up in per-shard counters and the exported conservation law
// (Candidates = ΣPruned + DTWCalls) covers k-NN traffic too.
func (db *DB) NearestKStatsBandCtx(ctx context.Context, query []float64, k, band int, bound *core.SharedBound) ([]Match, QueryStats, error) {
	if err := validateQuery(query, band); err != nil {
		return nil, QueryStats{}, err
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.searcher(ctx, band).NearestKSharedStats(seq.Sequence(query), k, bound)
}

// SearchCtx on *DB lives in twsim.go; together with NearestKStatsBandCtx it
// satisfies the sharded engine's shard.Store interface.
