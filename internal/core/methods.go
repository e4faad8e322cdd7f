package core

import (
	"context"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/dtw"
	"repro/internal/seq"
	"repro/internal/seqdb"
)

// ctxErr reports the context's error when it is already done; a nil context
// never cancels. Cancellation is checked at candidate boundaries (one check
// per dispatch slot, never per DP cell), so an abandoned query stops issuing
// DTW calls after at most one in-flight candidate per worker — cheap enough
// to sit on the hot path, prompt enough to matter under load.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// Searcher is a whole-matching similarity search method: it returns every
// data sequence S with Dtw(S, Q) ≤ epsilon. All implementations in this
// package are exact (no false dismissal) except FastMapSearch, which is
// provided to reproduce the paper's §3.3 false-dismissal argument.
type Searcher interface {
	// Name identifies the method in experiment output.
	Name() string
	// Search runs one whole-matching similarity query.
	Search(q seq.Sequence, epsilon float64) (*Result, error)
}

// refine runs the post-processing of Algorithm 1 (Step-4..7) through the
// tiered cascade: each candidate passes the pre-fetch LB_PAA tier (when envs
// holds its envelope), is fetched, and then runs the post-fetch tiers and
// the exact DP (see cascade). The matches are exactly {S : Dtw(S,Q) ≤ ε},
// bit-identical to the plain fetch-and-DTW loop, sorted by distance then ID.
//
// Candidates whose heap record is gone (deleted or never durably written —
// a dangling index entry from an interrupted write) are skipped rather
// than failing the query: dropping them cannot cause a false dismissal,
// and it keeps reads available until the next Repair removes the entries.
// Skipped candidates never touch DTWCalls — the counter reflects only DP
// invocations that actually ran.
//
// With workers > 1 the candidates fan out to a bounded worker pool (see
// refineParallel); the matches and the aggregated stats are bit-identical
// to the serial loop because the pruning cutoff is the fixed tolerance ε,
// so every candidate's verdict is independent of evaluation order.
func refine(ctx context.Context, db *seqdb.DB, base seq.Base, q seq.Sequence, epsilon float64,
	ids []seq.ID, noCascade bool, band int, envs *EnvStore,
	workers int, stats *QueryStats) ([]Match, error) {
	if workers > 1 && len(ids) > 1 {
		return refineParallel(ctx, db, base, q, epsilon, ids, noCascade, band, envs, workers, stats)
	}
	c := newCascade(q, base, band, envs, noCascade)
	defer c.close()
	var matches []Match
	for _, id := range ids {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		m, ok, err := c.refineOne(db, id, epsilon, stats)
		if err != nil {
			return nil, err
		}
		if ok {
			matches = append(matches, m)
		}
	}
	sortMatches(matches)
	return matches, nil
}

// refineOne takes one range-search candidate through the cascade: LB_PAA by
// ID, the heap fetch (a dangling entry is skipped, not an error), then the
// post-fetch tiers and the exact DP against the fixed tolerance.
func (c *cascade) refineOne(db *seqdb.DB, id seq.ID, epsilon float64, stats *QueryStats) (Match, bool, error) {
	if !c.admitEnvelope(id, epsilon, stats) {
		return Match{}, false, nil
	}
	s, ok, err := c.fetch(db, id)
	if !ok {
		return Match{}, false, err
	}
	d, ok := c.verify(s, epsilon, stats)
	return Match{ID: id, Dist: d}, ok, nil
}

// filterRadius converts a query tolerance into the index filter radius.
// The index stores unsquared feature values and Dtw-lb bounds the cost of
// one matched pair, so for the additive L2Sq base — where a matched pair
// contributes the square of its difference — a candidate with feature
// distance f qualifies whenever f² ≤ ε, i.e. f ≤ √ε. The seed passed ε
// through unchanged, which false-dismisses for ε < 1 (where √ε > ε) and
// over-admits for ε > 1; √ε is exact for all ε. The other bases charge the
// pair its absolute difference, so the radius is ε itself.
func filterRadius(base seq.Base, epsilon float64) float64 {
	if base == seq.L2Sq {
		return math.Sqrt(epsilon)
	}
	return epsilon
}

func sortMatches(matches []Match) {
	sort.Slice(matches, func(i, j int) bool {
		if matches[i].Dist != matches[j].Dist {
			return matches[i].Dist < matches[j].Dist
		}
		return matches[i].ID < matches[j].ID
	})
}

// NaiveScan is the sequential-scan baseline (§3.1): it reads every data
// sequence and evaluates the (early-abandoning) DTW directly.
type NaiveScan struct {
	DB   *seqdb.DB
	Base seq.Base
}

// Name implements Searcher.
func (n *NaiveScan) Name() string { return "Naive-Scan" }

// Search implements Searcher.
func (n *NaiveScan) Search(q seq.Sequence, epsilon float64) (*Result, error) {
	start := time.Now()
	before := n.DB.Stats()
	res := &Result{}
	err := n.DB.Scan(func(id seq.ID, s seq.Sequence) error {
		res.Stats.DTWCalls++
		if d, ok := dtw.DistanceWithin(s, q, n.Base, epsilon); ok {
			res.Matches = append(res.Matches, Match{ID: id, Dist: d})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sortMatches(res.Matches)
	after := n.DB.Stats()
	res.Stats.Results = len(res.Matches)
	// Naive-Scan has no filtering step; following the paper's Experiment 1
	// convention, its candidate count equals its result count.
	res.Stats.Candidates = len(res.Matches)
	res.Stats.DataReads = after.Reads - before.Reads
	res.Stats.DataMisses = after.Misses - before.Misses
	res.Stats.DataSeqMisses = after.SeqMisses - before.SeqMisses
	res.Stats.Wall = time.Since(start)
	return res, nil
}

// LBScan is Yi et al.'s sequential scan with the O(|S|+|Q|) lower bound
// D_lb used as a cheap filter before the full DTW (§3.2).
type LBScan struct {
	DB   *seqdb.DB
	Base seq.Base
}

// Name implements Searcher.
func (l *LBScan) Name() string { return "LB-Scan" }

// Search implements Searcher.
func (l *LBScan) Search(q seq.Sequence, epsilon float64) (*Result, error) {
	start := time.Now()
	before := l.DB.Stats()
	res := &Result{}
	// LB-Scan's own filter is the two-sided Yi bound; survivors go straight
	// to the exact DP.
	c := newCascade(q, l.Base, 0, nil, false)
	defer c.close()
	err := l.DB.Scan(func(id seq.ID, s seq.Sequence) error {
		res.Stats.LowerBoundCalls++
		if dtw.LBYi(s, q, l.Base) > epsilon {
			return nil
		}
		res.Stats.Candidates++
		if d, ok := c.verifyDP(s, epsilon, &res.Stats); ok {
			res.Matches = append(res.Matches, Match{ID: id, Dist: d})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sortMatches(res.Matches)
	after := l.DB.Stats()
	res.Stats.Results = len(res.Matches)
	res.Stats.DataReads = after.Reads - before.Reads
	res.Stats.DataMisses = after.Misses - before.Misses
	res.Stats.DataSeqMisses = after.SeqMisses - before.SeqMisses
	res.Stats.Wall = time.Since(start)
	return res, nil
}

// TWSimSearch is the paper's method (Algorithm 1): a square range query on
// the 4-d feature index with Dtw-lb as the pruning metric, followed by
// exact DTW refinement. Theorems 1 and 2 guarantee no false dismissal.
type TWSimSearch struct {
	DB    *seqdb.DB
	Index Index
	Base  seq.Base
	// NoCascade disables the tiered refinement cascade and the k-NN walk's
	// envelope ordering, sending every candidate straight to the exact
	// early-abandoning DP in plain mindist order (the pre-cascade behavior).
	// Results are bit-identical either way; no serving path sets it — it is
	// the reference path this package's equivalence tests compare against.
	NoCascade bool
	// Workers bounds the intra-query refinement parallelism. Values ≤ 1
	// keep the historical serial execution (the zero value is serial, so
	// direct constructions — including the experiment drivers, whose
	// per-query I/O accounting depends on a deterministic fetch order —
	// are unchanged). The public layer resolves its default to GOMAXPROCS.
	Workers int
	// Band is the Sakoe–Chiba half-width the query searches under: 0 (the
	// zero value) answers the paper's unconstrained distance, ≥ 1 answers
	// dtw.BandDistance with that half-width. The index filter and the LB_PAA
	// tier stay sound because a band only removes permissible warpings
	// (BandDistance ≥ Distance); the banded envelope tiers switch on
	// automatically for equal-length candidates.
	Band int
	// Envs, when set, enables the pre-fetch LB_PAA cascade tier against the
	// per-record PAA envelopes.
	Envs *EnvStore
	// Ctx, when set, cancels the query at the next candidate boundary: the
	// refine loop (serial or parallel) and the k-NN walk check it once per
	// candidate and return its error, so an abandoned query stops issuing
	// DTW calls promptly. Cancellation can only abandon work, never skip a
	// qualifying candidate, so a completed query is bit-identical whether or
	// not a context was attached. Nil never cancels.
	Ctx context.Context
}

// Name implements Searcher.
func (t *TWSimSearch) Name() string { return "TW-Sim-Search" }

// Search implements Searcher.
func (t *TWSimSearch) Search(q seq.Sequence, epsilon float64) (*Result, error) {
	if err := ctxErr(t.Ctx); err != nil {
		return nil, err
	}
	start := time.Now()
	dbBefore := t.DB.Stats()
	idxBefore := t.Index.Stats()
	fq, err := seq.ExtractFeature(q)
	if err != nil {
		return nil, err
	}
	ids, err := t.Index.RangeQuery(fq, filterRadius(t.Base, epsilon))
	if err != nil {
		return nil, err
	}
	res := &Result{}
	res.Stats.FilterWall = time.Since(start)
	res.Stats.Candidates = len(ids)
	refineStart := time.Now()
	res.Matches, err = refine(t.Ctx, t.DB, t.Base, q, epsilon, ids, t.NoCascade, t.Band, t.Envs, t.Workers, &res.Stats)
	if err != nil {
		return nil, err
	}
	res.Stats.RefineWall = time.Since(refineStart)
	dbAfter := t.DB.Stats()
	idxAfter := t.Index.Stats()
	res.Stats.Results = len(res.Matches)
	res.Stats.DataReads = dbAfter.Reads - dbBefore.Reads
	res.Stats.DataMisses = dbAfter.Misses - dbBefore.Misses
	res.Stats.DataSeqMisses = dbAfter.SeqMisses - dbBefore.SeqMisses
	res.Stats.IndexReads = idxAfter.Reads - idxBefore.Reads
	res.Stats.IndexMisses = idxAfter.Misses - idxBefore.Misses
	res.Stats.IndexSeqMisses = idxAfter.SeqMisses - idxBefore.SeqMisses
	res.Stats.Wall = time.Since(start)
	return res, nil
}

// NearestK returns the k sequences with the smallest exact DTW distance to
// q (an extension enabled by Dtw-lb being a true lower bound): candidates
// stream from the index in lower-bound order and refinement stops once the
// next lower bound exceeds the current k-th best exact distance.
func (t *TWSimSearch) NearestK(q seq.Sequence, k int) ([]Match, error) {
	return t.NearestKShared(q, k, nil)
}

// NearestKShared is NearestK with an optional cross-partition pruning bound
// (see SharedBound). The walk stops as soon as the next lower bound exceeds
// the tighter of the local k-th-best distance and the shared bound, and the
// local k-th-best is published to the shared bound as it improves, so
// concurrent walks over disjoint shards prune one another. With a nil bound
// this is exactly NearestK. The returned matches are the walk's survivors
// (at most k, ascending); under a shared bound they are a superset-filter
// for the merged top-k, not necessarily the partition's own true top-k.
func (t *TWSimSearch) NearestKShared(q seq.Sequence, k int, shared *SharedBound) ([]Match, error) {
	ms, _, err := t.NearestKSharedStats(q, k, shared)
	return ms, err
}

// NearestKSharedStats is NearestKShared with the query's work counters
// returned alongside the matches — the serving layer accumulates them into
// its exported totals and latency histograms, and the sharded engine into
// its per-shard skew breakdown. Candidates counts every streamed candidate
// that was actually fetched and evaluated, so the conservation law
// Candidates = ΣPruned + DTWCalls holds for k-NN exactly as for range
// search. Wall and RefineWall cover the whole walk (filtering and
// refinement interleave in a k-NN walk, so there is no separate filter
// phase to time).
func (t *TWSimSearch) NearestKSharedStats(q seq.Sequence, k int, shared *SharedBound) ([]Match, QueryStats, error) {
	var stats QueryStats
	start := time.Now()
	ms, err := t.nearestKShared(q, k, shared, &stats)
	stats.Wall = time.Since(start)
	stats.RefineWall = stats.Wall
	stats.Results = len(ms)
	return ms, stats, err
}

// knnWalk runs the index walk for one k-NN query: fn receives candidates in
// non-decreasing key order, where the key is comparableLB(Base, L∞ mindist)
// raised to max(·, LB_PAA(Q, the candidate's envelope in Envs)). Both halves
// of the max lower-bound the candidate's (banded) DTW distance in comparable
// space, so a stop on `key > cutoff` dismisses only candidates whose exact
// distance is already above the cutoff (DESIGN.md §12), just earlier than
// the mindist alone allows. With the cascade off (NoCascade keeps the
// brute-force baseline honest) or no envelopes stored, the same keyed walk
// runs with a nil sharpener, so the stream is the transformed mindist order
// and the frontier counters stay comparable across modes. The walk's
// frontier counters land in stats when it finishes.
func (t *TWSimSearch) knnWalk(q seq.Sequence, fq seq.Feature, stats *QueryStats,
	fn func(id seq.ID, key float64) bool) error {
	var sharpen func(id seq.ID) float64
	if !t.NoCascade && len(q) > 0 && t.Envs.Len() > 0 {
		pruner := newPAAPruner(q, t.Base, t.Band)
		sharpen = func(id seq.ID) float64 {
			if pe, ok := t.Envs.Get(id); ok {
				return pruner.lbPAA(&pe)
			}
			return 0
		}
	}
	ws, err := t.Index.NearestWalkKeyed(fq, func(d float64) float64 { return comparableLB(t.Base, d) }, sharpen, fn)
	stats.addKNNWalk(ws)
	return err
}

// knnTop is the state the candidate evaluations of one k-NN query share: the
// k best exact distances so far and the cross-shard bound. The serial walk
// and the parallel workers go through the same methods; mu is uncontended in
// the serial case.
type knnTop struct {
	mu     sync.Mutex
	k      int
	best   []Match // sorted ascending by (Dist, ID), ≤ k entries
	shared *SharedBound
}

// cutoff is the current pruning bound: min(k-th best exact, shared bound).
// Both only ever shrink.
func (kt *knnTop) cutoff() float64 {
	kt.mu.Lock()
	c := math.Inf(1)
	if len(kt.best) == kt.k {
		c = kt.best[kt.k-1].Dist
	}
	kt.mu.Unlock()
	if kt.shared != nil {
		if g := kt.shared.Load(); g < c {
			c = g
		}
	}
	return c
}

// admit records one candidate's exact distance, publishing the k-th best to
// the shared bound once k survivors exist.
func (kt *knnTop) admit(id seq.ID, d float64) {
	kt.mu.Lock()
	kt.best = append(kt.best, Match{ID: id, Dist: d})
	sortMatches(kt.best)
	if len(kt.best) > kt.k {
		kt.best = kt.best[:kt.k]
	}
	if kt.shared != nil && len(kt.best) == kt.k {
		kt.shared.Update(kt.best[kt.k-1].Dist)
	}
	kt.mu.Unlock()
}

// knnCandidate is the one k-NN candidate body, called inline by the serial
// walk and from the parallel workers: LB_PAA by ID against the current
// cutoff, the heap fetch (a dangling index entry is skipped, not an error),
// then the full DP while the cutoff is still infinite and the cascade
// afterwards. A candidate LB_PAA dismisses is still a candidate, so it is
// counted before the fetch; the others are counted after it, where dangling
// entries are excluded — Candidates = ΣPruned + DTWCalls either way.
func (t *TWSimSearch) knnCandidate(c *cascade, top *knnTop, id seq.ID, stats *QueryStats) error {
	if !c.admitEnvelope(id, top.cutoff(), stats) {
		stats.Candidates++
		return nil
	}
	s, ok, err := c.fetch(t.DB, id)
	if !ok {
		return err
	}
	stats.Candidates++
	var d float64
	if cut := top.cutoff(); math.IsInf(cut, 1) {
		stats.DTWCalls++
		d = c.exactDistance(s)
	} else {
		var ok bool
		if d, ok = c.verify(s, cut, stats); !ok {
			return nil
		}
	}
	top.admit(id, d)
	return nil
}

// nearestKShared is NearestKShared with the per-tier work counters
// exposed. Once k survivors exist the cutoff is finite and every candidate
// runs the full cascade against it (and against the cross-shard bound when
// present), so the tiers tighten as the search proceeds.
//
// The walk streams candidates in ascending lower-bound order, so the stop
// test compares the base-comparable form of the bound (squared for L2Sq,
// where a single matched pair contributes its squared difference to the
// additive total) against the cutoff: the comparable bound is monotone in
// the walk order, so stopping dismisses only candidates whose exact
// distance is already above the cutoff. The seed compared the raw bound,
// which for L2Sq cutoffs < 1 kept walking (and fetching) candidates a
// sound bound dismisses — and, worse, was the same unsquared comparison
// the range filter made (see filterRadius).
func (t *TWSimSearch) nearestKShared(q seq.Sequence, k int, shared *SharedBound, stats *QueryStats) ([]Match, error) {
	fq, err := seq.ExtractFeature(q)
	if err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, nil
	}
	top := &knnTop{k: k, shared: shared}
	if t.Workers > 1 {
		return t.nearestKParallel(q, fq, top, stats)
	}
	c := newCascade(q, t.Base, t.Band, t.Envs, t.NoCascade)
	defer c.close()
	var candErr error
	err = t.knnWalk(q, fq, stats, func(id seq.ID, key float64) bool {
		if candErr = ctxErr(t.Ctx); candErr != nil {
			return false
		}
		if key > top.cutoff() {
			return false // every later candidate has Dtw >= key > cutoff
		}
		candErr = t.knnCandidate(c, top, id, stats)
		return candErr == nil
	})
	if candErr != nil {
		return nil, candErr
	}
	if err != nil {
		return nil, err
	}
	return top.best, nil
}
