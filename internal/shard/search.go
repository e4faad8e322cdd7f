package shard

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
)

// SearchCtx fans one whole-matching range query out across all shards (one
// index range query plus exact-DTW verification per shard, run concurrently
// on the engine's worker pool) and merges the partial results: matches are
// concatenated with their IDs lifted to the global space and re-sorted by
// (distance, ID); the statistics sum the per-shard work counters while the
// wall time is the observed fan-out duration (≈ the slowest shard when the
// pool runs all shards concurrently). Every shard answers the distance under
// the same Sakoe–Chiba band half-width (0 = unconstrained), so the merged
// result equals the single-database answer. A done context abandons every
// shard's work at its next candidate boundary and the fan-out returns the
// context's error; cancellation can only abandon work, never skip a
// qualifying candidate.
func (e *Engine) SearchCtx(ctx context.Context, query []float64, epsilon float64, band int) (*core.Result, error) {
	return e.search(ctx, query, epsilon, band, true)
}

// perShardWorkers splits the engine's refine budget across the shards one
// search visits concurrently: with C = min(parallelism, shards) shard
// workers in flight, each may spend ⌊budget/C⌋ (at least 1) intra-query
// refinement workers, so one search runs at most ~budget refinement
// goroutines no matter how the shard count and fan-out pool are
// configured. Serial shard visits (SearchBatchCtx's per-query workers) get 1:
// the batch dispatcher already runs one worker per query, and nesting
// intra-query pools under that is what the budget exists to prevent.
func (e *Engine) perShardWorkers(parallel bool) int {
	if !parallel {
		return 1
	}
	conc := e.parallelism
	if conc > len(e.stores) {
		conc = len(e.stores)
	}
	per := e.refineWorkers / conc
	if per < 1 {
		per = 1
	}
	return per
}

func (e *Engine) search(ctx context.Context, query []float64, epsilon float64, band int, parallel bool) (*core.Result, error) {
	start := time.Now()
	workers := e.perShardWorkers(parallel)
	results := make([]*core.Result, len(e.stores))
	run := func(si int) error {
		res, err := e.stores[si].SearchBandWorkersCtx(ctx, query, epsilon, band, workers)
		if err != nil {
			return fmt.Errorf("shard %d: %w", si, err)
		}
		e.counters[si].accumulate(res.Stats)
		results[si] = res
		return nil
	}
	var err error
	if parallel {
		err = e.FanOut(run)
	} else {
		for si := range e.stores {
			if err = run(si); err != nil {
				break
			}
		}
	}
	if err != nil {
		return nil, err
	}
	out := &core.Result{}
	for si, r := range results {
		for _, m := range r.Matches {
			out.Matches = append(out.Matches, core.Match{ID: e.globalID(m.ID, si), Dist: m.Dist})
		}
		out.Stats.Add(r.Stats)
	}
	sortMatches(out.Matches)
	out.Stats.Results = len(out.Matches)
	out.Stats.Wall = time.Since(start)
	return out, nil
}

// NearestKCtx fans the exact k-NN search out across shards under one band
// half-width (0 = unconstrained). The shards share a best-k bound
// (core.SharedBound): as soon as any shard has k exact distances it
// publishes its k-th best, and every other shard prunes its index walk
// against the minimum published so far, so laggard shards stop early. The
// per-shard survivor lists are merged, re-sorted, and truncated to k —
// identical to the single-database result (modulo ID assignment).
//
// The per-shard statistics feed the engine's cumulative counters, so k-NN
// traffic shows up in ShardStats alongside range searches and the exported
// conservation law (Candidates = ΣPruned + DTWCalls) covers both kinds of
// query. Stats sum the shards' work; Wall is the observed fan-out duration;
// RefineWall sums the shards' walk times (filtering and refinement
// interleave in the k-NN walk, so there is no separate filter phase to
// report). A done context abandons every shard's walk at its next candidate
// boundary and the fan-out returns the context's error.
func (e *Engine) NearestKCtx(ctx context.Context, query []float64, k, band int) (*core.Result, error) {
	if k <= 0 {
		return &core.Result{}, nil
	}
	start := time.Now()
	bound := core.NewSharedBound()
	workers := e.perShardWorkers(true)
	perShard := make([][]core.Match, len(e.stores))
	perStats := make([]core.QueryStats, len(e.stores))
	err := e.FanOut(func(si int) error {
		ms, qs, err := e.stores[si].NearestKStatsBandWorkersCtx(ctx, query, k, band, bound, workers)
		if err != nil {
			return fmt.Errorf("shard %d: %w", si, err)
		}
		e.counters[si].accumulate(qs)
		for i := range ms {
			ms[i].ID = e.globalID(ms[i].ID, si)
		}
		perShard[si], perStats[si] = ms, qs
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &core.Result{}
	for si, ms := range perShard {
		out.Matches = append(out.Matches, ms...)
		out.Stats.Add(perStats[si])
	}
	sortMatches(out.Matches)
	if len(out.Matches) > k {
		out.Matches = out.Matches[:k]
	}
	out.Stats.Results = len(out.Matches)
	out.Stats.Wall = time.Since(start)
	return out, nil
}

// SearchBatchCtx runs many range queries concurrently, one worker per query.
// Each worker visits the shards of its query serially: with P workers spread
// over N shards that keeps every buffer pool busy without nesting worker
// pools, which is what maximizes batch throughput. parallelism <= 0 selects
// GOMAXPROCS. The first error aborts the batch (see core.RunBatch); a done
// context abandons in-flight queries at their next candidate boundary and
// fails the whole batch with the context's error. The caller validates ε,
// band and the queries.
func (e *Engine) SearchBatchCtx(ctx context.Context, queries [][]float64, epsilon float64, band, parallelism int) ([]*core.Result, error) {
	out := make([]*core.Result, len(queries))
	err := core.RunBatch(len(queries), parallelism, func(i int) error {
		res, err := e.search(ctx, queries[i], epsilon, band, false)
		if err != nil {
			return fmt.Errorf("shard: query %d: %w", i, err)
		}
		out[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// sortMatches orders matches by ascending distance, breaking ties by ID —
// the same order the single-database engine produces.
func sortMatches(matches []core.Match) {
	sort.Slice(matches, func(i, j int) bool {
		if matches[i].Dist != matches[j].Dist {
			return matches[i].Dist < matches[j].Dist
		}
		return matches[i].ID < matches[j].ID
	})
}
