package core

import (
	"errors"

	"repro/internal/dtw"
	"repro/internal/seq"
	"repro/internal/seqdb"
)

// cascade is the tiered filter-and-refine engine every exact search method
// funnels candidates through, after the index walk has applied the paper's
// Dtw-lb (LB_Kim) to the stored 4-tuples. Tiers run cheapest first, and each
// one is a true lower bound of the distance being answered — the
// unconstrained time warping distance by default, or BandDistance when the
// query carries a Sakoe–Chiba band — so a dismissal at any tier can never be
// a false dismissal (the guarantee the paper's Theorem 1 establishes for the
// index filter extends to every tier):
//
//	admitEnvelope — on the stored PAA envelope (EnvStore, by ID), before
//	                any heap fetch (range search): LB_PAA, two-sided per
//	                segment, for a banded equal-length pair (the k-NN walk
//	                keys its candidates with the same bound instead); for an
//	                unbanded L∞ query with a decider, the decision at the
//	                cutoff over the 16 stored segments (segmentsWithin)
//	verify        — LB_Keogh on the banded envelope for a banded
//	                equal-length pair
//	verifyDP      — the exact DP: the single-window pass (dtw.Refiner),
//	                over the whole matrix for unconstrained queries and
//	                over the Sakoe–Chiba band's cells for banded ones; an
//	                unbanded L∞ query at a finite cutoff first asks the
//	                bit-parallel decision (dtw.Decider) whether Dtw ≤ cutoff,
//	                then whether Dtw ≤ LB_Kim, and values every other result
//	                with the DP confined to the windows the first decision's
//	                reach rows allow (dtw.Refiner.CorridorDistance)
//
// The cascade prunes the paper's L∞ base only. No value bound sits between
// the walk and the DP for an unbanded query: the global-range LB_PAA, the
// global-envelope LB_Keogh and the two-sided LB_Yi are bounded above by the
// Greatest/Smallest components of Dtw-lb, which the walk has already applied
// (DESIGN.md §8; TestGlobalPAABelowKim and dtw.TestGlobalBoundsBelowKim hold
// the chain). Only the path-aware segment decision does, and it dismisses
// only candidates the decision after the fetch would. An additive base (L1,
// L2Sq) disables the cascade: newCascade sends every candidate straight to
// the reference DP, the path the oracle tests compare against.
//
// The cutoff is the query tolerance for range search and the shrinking
// k-th-best bound for k-NN (including the cross-shard SharedBound), so the
// tiers tighten as a k-NN search proceeds.
//
// A cascade holds a pooled dtw.Refiner, a pooled dtw.Decider when the query
// has one, and, once it has fetched a candidate, a pooled seqdb.Scratch;
// build one per query with newCascade and close it when the query
// completes. Not safe for concurrent use: a query refines on the goroutine
// that serves it.
type cascade struct {
	// paaPruner carries q, band, and the cached query-side PAA reductions
	// that range search prunes with; the k-NN walk keys its frontier with a
	// second pruner of its own, which evaluates the identical bound (see
	// newPAAPruner).
	paaPruner
	base    seq.Base
	bandEnv dtw.Envelope // banded envelope of q; built only when band ≥ 1
	envs    *EnvStore
	refiner *dtw.Refiner
	// decider indexes q for the exact L∞ decision verifyDP runs before the
	// refiner, and admitEnvelope over the stored segments before the fetch:
	// unbanded L∞ queries of 1 to 1 024 finite elements only, else nil.
	decider  *dtw.Decider
	scratch  *seqdb.Scratch // the candidate under evaluation lives here; see fetch
	disabled bool
}

// paaPruner is the query-side state of the LB_PAA bound, shared between the
// cascade's pre-fetch tier and the k-NN walk's key sharpener. Not safe for
// concurrent use (the cached reductions fill lazily).
type paaPruner struct {
	q seq.Sequence
	// band is the Sakoe–Chiba half-width the query searches under: 0 means
	// the paper's unconstrained distance, ≥ 1 answers dtw.BandDistance.
	band int
	paa  paaQuery
}

// newPAAPruner builds a standalone pruner for the k-NN index walk — the
// cheap subset of newCascade (no envelope, no refiner pool round-trip).
func newPAAPruner(q seq.Sequence, band int) *paaPruner {
	if band < 0 {
		band = 0
	}
	return &paaPruner{q: q, band: band}
}

// paaQuery caches the query-side reductions LB_PAA needs, computed once per
// query on first use: per segment k with window W_k = [lo_k − band,
// hi_k − 1 + band] ∩ [0, |Q|−1], Q's range over W_k, Q's own range over
// [lo_k, hi_k), and the segments [coverLo_k, coverHi_k] that cover W_k.
type paaQuery struct {
	segMin, segMax   [seq.PAASegments]float64 // Q over W_k
	ownMin, ownMax   [seq.PAASegments]float64 // Q over segment k
	coverLo, coverHi [seq.PAASegments]int
	empty            [seq.PAASegments]bool // segment k holds no element
	segReady         bool
}

// acquireDecider is dtw.AcquireDecider. Tests swap in one that returns nil
// to compare the decision route with the refiner-only route.
var acquireDecider = dtw.AcquireDecider

// newCascade prepares the per-query state: the banded envelope (computed
// once per query) and a pooled refiner. band ≥ 1 switches the exact distance
// to dtw.BandDistance with that half-width; envs enables the pre-fetch
// tier. With disabled=true, or under an additive base, every
// candidate goes straight to the reference DP — the seed's behavior, and
// the oracle the tests compare against (the band still applies: a disabled
// banded cascade is the brute-force banded scan).
func newCascade(q seq.Sequence, base seq.Base, band int, envs *EnvStore, disabled bool) *cascade {
	if band < 0 {
		band = 0 // public layers validate; never let a bad band weaken a bound
	}
	disabled = disabled || base != seq.LInf
	c := &cascade{paaPruner: paaPruner{q: q, band: band}, base: base, envs: envs, disabled: disabled}
	if disabled {
		return c
	}
	if band >= 1 {
		c.bandEnv = dtw.NewEnvelope(q, band)
	} else {
		c.decider = acquireDecider(q)
	}
	c.refiner = dtw.AcquireRefiner()
	return c
}

func (c *cascade) close() {
	c.decider.Release()
	c.decider = nil
	if c.refiner != nil {
		c.refiner.Release()
		c.refiner = nil
	}
	if c.scratch != nil {
		c.scratch.Release()
		c.scratch = nil
	}
}

// fetch reads candidate id from the heap into the cascade's scratch. The
// sequence is valid until the next fetch: verify and exactDistance read it
// and keep nothing (a Match is an ID and a distance). ok is false for a
// dangling index entry — the record is deleted or was never durably written
// — which a query skips rather than fails.
func (c *cascade) fetch(db *seqdb.DB, id seq.ID) (s seq.Sequence, ok bool, err error) {
	if c.scratch == nil {
		c.scratch = seqdb.AcquireScratch()
	}
	s, err = db.Fetch(id, c.scratch)
	if errors.Is(err, seqdb.ErrDeleted) || errors.Is(err, seqdb.ErrNotFound) {
		return nil, false, nil
	}
	return s, err == nil, err
}

// kernelBand is the query's band in package dtw's convention, where a
// negative half-width means the unconstrained distance.
func (c *cascade) kernelBand() int {
	if c.band >= 1 {
		return c.band
	}
	return -1
}

// exactDistance is the distance the query answers: BandDistance for banded
// queries, the paper's unconstrained distance otherwise. k-NN uses it while
// the cutoff is still infinite: the refiner at an infinite tolerance keeps
// every cell alive and returns the reference DP's bits.
func (c *cascade) exactDistance(s seq.Sequence) float64 {
	if c.disabled {
		return dtw.BandDistance(s, c.q, c.base, c.kernelBand())
	}
	d, _ := c.refiner.BandDistanceWithin(s, c.q, c.base, c.kernelBand(), dtw.Inf)
	return d
}

// admitEnvelope is range search's pre-fetch tier, on the candidate's stored
// PAA envelope: LB_PAA for a banded query, and for an unbanded query with a
// decider the decision at the cutoff run over the 16 stored segments instead
// of the n elements (segmentsWithin). Either way a "no" dismisses the
// candidate unread. Candidates without a stored envelope pass through
// unharmed, and so does every candidate of a query that has neither.
func (c *cascade) admitEnvelope(id seq.ID, cutoff float64, stats *QueryStats) bool {
	if c.disabled || len(c.q) == 0 || !(cutoff < dtw.Inf) || c.inert() && c.decider == nil {
		return true
	}
	pe := c.envs.Get(id)
	if pe == nil {
		return true
	}
	// A decider means an unbanded query, and no decider here a banded one.
	admit := c.decider != nil && c.segmentsWithin(pe, cutoff) || c.decider == nil && c.lbPAA(pe) <= cutoff
	if !admit {
		stats.LBPAAPruned++
	}
	return admit
}

// segmentsWithin is the decider's pass at t with segment k of the stored
// envelope as row k, admitting every rank between Min_k's first within t
// and Max_k's last, or a range that holds them, read from a rank table the
// decider builds once for t (dtw.Decider.WithinBounds). Its "no" is the fine
// decision's "no" at the same t, so it prunes only what the decision after
// the fetch would have pruned (DESIGN.md §8): PackEnvelope rounds outward,
// so each element of segment k lies in [Min_k, Max_k] and its row's mask
// inside row k's; a path of cells costing ≤ t projects onto a path through
// the segment rows, stepping down one segment at a boundary, or through the
// empty segments of a record shorter than 16, each of which stores the next
// element, at that element's column.
func (c *cascade) segmentsWithin(pe *PackedEnvelope, t float64) bool {
	var lo, hi [seq.PAASegments]float64
	for k := range lo {
		lo[k], hi[k] = float64(pe.Min[k]), float64(pe.Max[k])
	}
	return c.decider.WithinBounds(lo[:], hi[:], t)
}

// inert reports that LB_PAA cannot exceed what the index walk already
// applied to every candidate it streams: an unbanded query has no banded
// pair, and lbPAA is 0 for all of them. The k-NN walk runs without a
// sharpener, and range search's pre-fetch tier runs the segment decision
// (segmentsWithin) instead, a path-aware pass over the same envelopes.
func (c *paaPruner) inert() bool { return c.band == 0 }

// lbPAA computes the L∞ LB_PAA bound between the query and one stored record
// profile (packed, see PackedEnvelope): a lower bound of the distance the
// query answers.
//
// It is the two-sided form of lbPAABanded for a banded query over a record
// of the query's length, and 0 for every other pair. There the only window a
// segment has is the whole of Q, and the max over segments of the gap
// between [Min_k, Max_k] and [min Q, max Q] is at most LB_Kim with no
// rounding slack — Min_k − max Q ≤ Greatest(S) − Greatest(Q) and
// min Q − Max_k ≤ Smallest(Q) − Smallest(S), rounding being monotone
// (TestGlobalPAABelowKim) — which the index walk has applied.
func (c *paaPruner) lbPAA(pe *PackedEnvelope) float64 {
	if c.band < 1 || int(pe.Len) != len(c.q) {
		return 0
	}
	return c.lbPAABanded(pe)
}

// lbPAABanded is LB_PAA under L∞ for a banded query over a record of the
// query's length: the max over non-empty segments k of four terms, each at
// most the cost of a pair every warping path in the band matches.
//
//	forward  qlo_k − Min_k and Max_k − qhi_k: the element of S at Min_k (at
//	         Max_k) is matched to some q_j with j ∈ W_k, and [qlo_k, qhi_k] is
//	         Q's range over W_k
//	reverse  sl_k − qmin_k and qmax_k − sh_k: Q's own extremes over segment
//	         k are matched to some s_i with i ∈ W_k, and [sl_k, sh_k] is the
//	         range of the stored segments covering W_k
//
// The record is packed, and the two halves read it in opposite directions.
// The reverse terms need only intervals that contain the segments' values,
// so they read sl_k and sh_k from the stored, outward-rounded bounds. The
// forward terms need the value of an element of S, and an outward bound is
// not one: a Min rounded down makes qlo_k − Min_k larger than the pair's
// cost. They read each bound one float32 ulp inward instead (minIn, maxIn):
// a value ≥ the true Min_k and ≤ the true Max_k, at a cost of at most that
// ulp of tightness.
//
// So each term is one rounded subtraction of operands no farther apart than
// the pair's, and rounding is monotone, so it is ≤ the cost |s_i − q_j| the
// DP charges that pair; the DP combines by max, so the bound is ≤
// BandDistance bit for bit (FuzzLBPAASound). The forward half alone
// dominates the interval gap between the inward-read bounds and
// [qlo_k, qhi_k]. Each term keeps its own running max so the four chains
// overlap (BenchmarkLBPAA: one shared chain costs ≈ 2×).
func (c *paaPruner) lbPAABanded(pe *PackedEnvelope) float64 {
	c.ensureSegWindows()
	p := &c.paa
	fLo, fHi, rLo, rHi := 0.0, 0.0, 0.0, 0.0
	for k := 0; k < seq.PAASegments; k++ {
		if p.empty[k] {
			continue
		}
		sl, sh := pe.Min[p.coverLo[k]], pe.Max[p.coverLo[k]]
		for j := p.coverLo[k] + 1; j <= p.coverHi[k]; j++ {
			if !p.empty[j] {
				sl, sh = min(sl, pe.Min[j]), max(sh, pe.Max[j])
			}
		}
		fLo = max(fLo, p.segMin[k]-pe.minIn(k))
		fHi = max(fHi, pe.maxIn(k)-p.segMax[k])
		rLo = max(rLo, float64(sl)-p.ownMin[k])
		rHi = max(rHi, p.ownMax[k]-float64(sh))
	}
	return max(fLo, fHi, rLo, rHi)
}

func (c *paaPruner) ensureSegWindows() {
	if c.paa.segReady {
		return
	}
	n, p := len(c.q), &c.paa
	for k := 0; k < seq.PAASegments; k++ {
		lo, hi := seq.PAABounds(n, k)
		if p.empty[k] = lo >= hi; p.empty[k] {
			continue
		}
		wlo, whi := max(lo-c.band, 0), min(hi-1+c.band, n-1)
		p.segMin[k], p.segMax[k] = c.q[wlo : whi+1].MinMax()
		p.ownMin[k], p.ownMax[k] = c.q[lo:hi].MinMax()
		p.coverLo[k], p.coverHi[k] = paaSegmentOf(n, wlo), paaSegmentOf(n, whi)
	}
	p.segReady = true
}

// paaSegmentOf returns the segment of a length-n sequence that holds
// position i: the first whose end lies past i.
func paaSegmentOf(n, i int) int {
	for k := 0; ; k++ {
		if _, hi := seq.PAABounds(n, k); hi > i {
			return k
		}
	}
}

// comparableLB converts a raw LB_Kim feature distance into the form
// comparable against a DTW distance under base: for the additive L2Sq base
// the single matched pair the bound describes contributes its squared
// difference, so the comparable bound is the square. Used by the k-NN
// walk-stop test; since x ↦ x² is monotone on the walk's nonnegative
// ascending bounds, the converted stream stays ascending and stopping on
// it is sound. (The walk itself keys by the raw bound: an additive base has
// no sharpener, and a monotone map does not change the order.)
func comparableLB(base seq.Base, lb float64) float64 {
	if base == seq.L2Sq {
		return lb * lb
	}
	return lb
}

// verify runs the post-fetch tiers on a candidate: it returns (d, true)
// with the exact distance iff the query's distance (banded or
// unconstrained) is ≤ cutoff, bit-identical to the corresponding
// brute-force DP, while attributing each dismissal to the tier that made it.
// Only candidates the exact step decides increment DTWCalls (see verifyDP).
//
// The one tier before the DP is LB_Keogh on the banded envelope, for a
// banded equal-length candidate (Keogh's theorem; sound for BandDistance
// with this exact band, and newCascade built it with the query's band, so
// the pair is matched by construction). An unbanded candidate gets no tier:
// the global envelope's bound is below the LB_Kim the index walk applied
// (DESIGN.md §8).
func (c *cascade) verify(s seq.Sequence, cutoff float64, stats *QueryStats) (float64, bool) {
	if !c.disabled && c.band >= 1 && len(s) == len(c.q) && !s.Empty() {
		if dtw.LBKeogh(s, c.bandEnv, seq.LInf) > cutoff {
			stats.LBKeoghPruned++
			return dtw.Inf, false
		}
	}
	return c.verifyDP(s, cutoff, stats)
}

// verifyDP runs only the exact DP. LB-Scan uses this directly: its own
// LB_Yi filter already ran. Banded or not, it is one pass of the refiner's
// single-window kernel: a banded query hands it the band, each row's window
// is cut to the row's in-band columns, and the value that comes out is
// BandDistance's — the distance a banded query answers — bit for bit
// (DESIGN.md §8). A disabled cascade holds no refiner and runs the
// reference loops, which is what makes it the oracle.
//
// An unbanded rejection is a corridor prune. A banded one is counted as the
// abandoned DP call the reference loop made of it, so the per-tier shares
// of a banded workload read the same whichever kernel ran.
//
// An unbanded L∞ query with a finite cutoff asks its decider first, which
// answers Dtw ≤ t exactly without the DP (DESIGN.md §8). "No" at the cutoff
// is the refiner's corridor prune. "Yes" at L = LB_Kim means Dtw ≤ L ≤ Dtw,
// so L is the distance, bit for bit; it counts as a DTW call, as the
// refiner's verdict would have. Any other candidate is a result, whose value
// the DP computes inside the co-reach windows of the reach rows the first
// decision kept — or, for a candidate whose rows are over the cap, the
// refiner at the cutoff. Each candidate lands in the counter the refiner
// alone would have put it in.
func (c *cascade) verifyDP(s seq.Sequence, cutoff float64, stats *QueryStats) (float64, bool) {
	if c.disabled {
		stats.DTWCalls++
		d, ok := dtw.BandDistanceWithin(s, c.q, c.base, c.kernelBand(), cutoff)
		if !ok {
			stats.DTWAbandoned++
		}
		return d, ok
	}
	if c.decider != nil && cutoff < dtw.Inf {
		if !c.decider.WithinKeep(s, cutoff, c.refiner) {
			stats.CorridorPruned++
			return dtw.Inf, false
		}
		if lb := c.decider.LBKim(s); c.decider.Within(s, lb) {
			stats.DTWCalls++
			return lb, true
		}
		if d, ok := c.refiner.CorridorDistance(s, c.q); ok {
			stats.DTWCalls++
			return d, true
		}
	}
	d, verdict := c.refiner.BandDistanceWithin(s, c.q, c.base, c.kernelBand(), cutoff)
	switch {
	case verdict == dtw.VerdictWithin:
		stats.DTWCalls++
		return d, true
	case verdict == dtw.VerdictPruned && c.band == 0:
		stats.CorridorPruned++
	default:
		stats.DTWCalls++
		stats.DTWAbandoned++
	}
	return dtw.Inf, false
}
