package shard

import (
	"sync/atomic"

	"repro/internal/core"
)

// QueryTotals are one shard's cumulative query work counters since the
// engine was built: how many queries (range searches and k-NN walks)
// touched the shard, how many index candidates they produced, and where
// the refinement cascade dismissed them. Operators read the breakdown to spot skew (a shard doing
// disproportionate DTW work) and to see the cascade's prune rates in
// production rather than only in benchmarks.
type QueryTotals struct {
	Searches       int64
	Candidates     int64
	DTWCalls       int64
	DTWAbandoned   int64
	LBPAAPruned    int64
	LBKeoghPruned  int64
	CorridorPruned int64
	KNNRepushes    int64
	KNNEnvCutoffs  int64
}

// queryCounters is the lock-free accumulation form of QueryTotals; the
// fan-out workers of concurrent searches update it without coordination.
type queryCounters struct {
	searches, candidates, dtwCalls, dtwAbandoned atomic.Int64
	lbPAA, lbKeogh, corridor                     atomic.Int64
	knnRepushes, knnEnvCutoffs                   atomic.Int64
}

func (c *queryCounters) accumulate(qs core.QueryStats) {
	c.searches.Add(1)
	c.candidates.Add(int64(qs.Candidates))
	c.dtwCalls.Add(int64(qs.DTWCalls))
	c.dtwAbandoned.Add(int64(qs.DTWAbandoned))
	c.lbPAA.Add(int64(qs.LBPAAPruned))
	c.lbKeogh.Add(int64(qs.LBKeoghPruned))
	c.corridor.Add(int64(qs.CorridorPruned))
	c.knnRepushes.Add(int64(qs.KNNRepushes))
	c.knnEnvCutoffs.Add(int64(qs.KNNEnvCutoffs))
}

func (c *queryCounters) snapshot() QueryTotals {
	return QueryTotals{
		Searches:       c.searches.Load(),
		Candidates:     c.candidates.Load(),
		DTWCalls:       c.dtwCalls.Load(),
		DTWAbandoned:   c.dtwAbandoned.Load(),
		LBPAAPruned:    c.lbPAA.Load(),
		LBKeoghPruned:  c.lbKeogh.Load(),
		CorridorPruned: c.corridor.Load(),
		KNNRepushes:    c.knnRepushes.Load(),
		KNNEnvCutoffs:  c.knnEnvCutoffs.Load(),
	}
}

// ShardStat is one shard's contribution to the database statistics —
// operators watch the per-shard breakdown for skew (a hot shard shows up as
// an outlying sequence or page count).
type ShardStat struct {
	// ID is the shard number (the residue class id mod N it owns).
	ID int
	// Sequences is the shard's live sequence count.
	Sequences int
	// DataBytes is the logical size of the shard's heap data.
	DataBytes int64
	// IndexPages is the shard's feature index size in pages.
	IndexPages int
	// Repair is what the shard's last Repair rebuilt.
	Repair core.RepairStats
	// Queries is the shard's cumulative query work since the engine was
	// built, including the per-tier cascade prune counters.
	Queries QueryTotals
}

// ShardStats returns the per-shard breakdown, indexed by shard ID.
func (e *Engine) ShardStats() []ShardStat {
	out := make([]ShardStat, len(e.stores))
	for si := range e.stores {
		out[si] = ShardStat{
			ID:         si,
			Sequences:  e.stores[si].Len(),
			DataBytes:  e.stores[si].DataBytes(),
			IndexPages: e.stores[si].IndexPages(),
			Repair:     e.stores[si].LastRepair(),
			Queries:    e.counters[si].snapshot(),
		}
	}
	return out
}

// LastRepair aggregates the per-shard repair statistics: the live counts
// sum; Rebuilt reports whether any shard's index was rebuilt.
func (e *Engine) LastRepair() core.RepairStats {
	var agg core.RepairStats
	for si := range e.stores {
		rs := e.stores[si].LastRepair()
		agg.LiveSequences += rs.LiveSequences
		agg.Rebuilt = agg.Rebuilt || rs.Rebuilt
	}
	return agg
}
