package core

import (
	"errors"
	"math"

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
//	admitEnvelope — LB_PAA on the stored PAA envelope (EnvStore, by ID),
//	                before any heap fetch
//	verify        — banded equal-length candidates: LB_Keogh on the banded
//	                envelope, then the second pass of Lemire's LB_Improved;
//	                any other candidate under an additive base (L1, L2Sq):
//	                LB_Keogh on the global envelope
//	verifyDP      — the exact DP: the single-window pass (dtw.Refiner),
//	                over the whole matrix for unconstrained queries and
//	                over the Sakoe–Chiba band's cells for banded ones
//
// Under the paper's L∞ base nothing sits between the walk and the DP for an
// unbanded query beyond LB_PAA: the global-envelope LB_Keogh and the
// two-sided LB_Yi are bounded above by the Greatest/Smallest components of
// Dtw-lb, which the walk has already applied (DESIGN.md §8;
// dtw.TestGlobalBoundsBelowKim holds the chain). Under an additive base the
// global-envelope bound is a sum over positions and does exceed the 4-tuple's
// max, so it stays there (BenchmarkRangeAdditiveBases prices it). LB_PAA and
// the global envelope stay sound for banded queries because a band only
// removes permissible warpings: BandDistance ≥ Distance ≥ the bound.
//
// The cutoff is the query tolerance for range search and the shrinking
// k-th-best bound for k-NN (including the cross-shard SharedBound), so the
// tiers tighten as a k-NN search proceeds.
//
// A cascade holds a pooled dtw.Refiner and, once it has fetched a candidate,
// a pooled seqdb.Scratch; build one per query with newCascade and close it
// when the query completes. Not safe for concurrent use: a query that
// refines on several goroutines gives each its own (see worker).
type cascade struct {
	// paaPruner carries q, base, band, and the cached query-side PAA
	// reductions; the k-NN walk keys its frontier with a second pruner of
	// its own, so both evaluate the identical bound (see newPAAPruner).
	paaPruner
	// The envelopes are written once, by newCascade, and only read after:
	// the cascades of one query's workers share them.
	bandEnv   dtw.Envelope // banded envelope of q; built only when band ≥ 1
	globalEnv dtw.Envelope // [min q, max q] everywhere; built only for the additive bases
	envs      *EnvStore
	impr      dtw.ImprovedScratch
	refiner   *dtw.Refiner
	scratch   *seqdb.Scratch // the candidate under evaluation lives here; see fetch
	disabled  bool
}

// paaPruner is the query-side state of the LB_PAA bound, shared between the
// cascade's pre-fetch tier and the k-NN walk's key sharpener. Not safe for
// concurrent use (the cached reductions fill lazily).
type paaPruner struct {
	q    seq.Sequence
	base seq.Base
	// band is the Sakoe–Chiba half-width the query searches under: 0 means
	// the paper's unconstrained distance, ≥ 1 answers dtw.BandDistance.
	band int
	paa  paaQuery
}

// newPAAPruner builds a standalone pruner for the k-NN index walk — the
// cheap subset of newCascade (no envelope, no refiner pool round-trip).
func newPAAPruner(q seq.Sequence, base seq.Base, band int) *paaPruner {
	if band < 0 {
		band = 0
	}
	return &paaPruner{q: q, base: base, band: band}
}

// paaQuery caches the query-side reductions LB_PAA needs: the global range
// of Q (any length, any band) and, for banded equal-length candidates, the
// per-segment min/max of Q over band-expanded segment windows. Both are
// computed once per query, on first use.
type paaQuery struct {
	qMin, qMax     float64
	globalReady    bool
	segMin, segMax [seq.PAASegments]float64
	segReady       bool
}

// newCascade prepares the per-query state: the envelopes (computed once per
// query) and a pooled refiner. band ≥ 1 switches the exact distance
// to dtw.BandDistance with that half-width; envs enables the pre-fetch
// LB_PAA tier. With disabled=true every candidate goes straight to the exact
// DP — the seed's behavior, kept for benchmarks and oracle tests (the band
// still applies: a disabled banded cascade is the brute-force banded scan).
func newCascade(q seq.Sequence, base seq.Base, band int, envs *EnvStore, disabled bool) *cascade {
	if band < 0 {
		band = 0 // public layers validate; never let a bad band weaken a bound
	}
	c := &cascade{paaPruner: paaPruner{q: q, base: base, band: band}, envs: envs, disabled: disabled}
	if disabled {
		return c
	}
	if band >= 1 {
		c.bandEnv = dtw.NewEnvelope(q, band)
	}
	if base != seq.LInf {
		c.globalEnv = dtw.GlobalEnvelope(q)
	}
	c.refiner = dtw.AcquireRefiner()
	return c
}

// worker returns a cascade for another goroutine refining the same query.
// It shares c's envelopes, which nothing writes after newCascade, and owns
// what a candidate evaluation does write: the lazily filled PAA reductions,
// the LB_Improved scratch, the fetch scratch and a pooled refiner. Close it
// like c.
func (c *cascade) worker() *cascade {
	w := &cascade{
		paaPruner: paaPruner{q: c.q, base: c.base, band: c.band},
		bandEnv:   c.bandEnv, globalEnv: c.globalEnv,
		envs: c.envs, disabled: c.disabled,
	}
	if !c.disabled {
		w.refiner = dtw.AcquireRefiner()
	}
	return w
}

func (c *cascade) close() {
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
// every cell alive and returns the reference kernels' bits.
func (c *cascade) exactDistance(s seq.Sequence) float64 {
	if c.disabled {
		return dtw.BandDistance(s, c.q, c.base, c.kernelBand())
	}
	d, _ := c.refiner.BandDistanceWithin(s, c.q, c.base, c.kernelBand(), dtw.Inf)
	return d
}

// admitEnvelope is the pre-fetch tier: LB_PAA evaluated between the query
// and the candidate's stored PAA envelope. Candidates without a stored
// envelope pass through unharmed.
func (c *cascade) admitEnvelope(id seq.ID, cutoff float64, stats *QueryStats) bool {
	if c.disabled || c.envs == nil || len(c.q) == 0 || math.IsInf(cutoff, 1) {
		return true
	}
	pe, ok := c.envs.Get(id)
	if !ok {
		return true
	}
	if c.lbPAA(&pe) > cutoff {
		stats.LBPAAPruned++
		return false
	}
	return true
}

// lbPAA computes the LB_PAA bound between the query and one stored record
// profile. For a banded query over an equal-length record, segment k's
// elements s_i (i ∈ [lo_k, hi_k)) can only match q_j with |i−j| ≤ band, so
// every matched element lies in Q's band-expanded segment window
// [lo_k−band, hi_k−1+band]; the per-element cost is at least the interval
// gap between the record's segment range and that window's range. In every
// other case the window degrades to Q's global range — each element of S
// matches *some* element of Q (a segment-wise refinement of the S-side of
// LB_Yi), sound for the unconstrained distance and therefore for the banded
// one too. Additive bases sum weight·Elem(0, gap) over segments (each
// element is matched at least once); L∞ takes the max over non-empty
// segments. Either way LB_PAA ≤ LB_Keogh of the corresponding envelope, so
// the tier ordering is monotone.
func (c *paaPruner) lbPAA(pe *seq.PAAEnvelope) float64 {
	banded := c.band >= 1 && pe.Len == len(c.q)
	if banded {
		c.ensureSegWindows()
	} else {
		c.ensureGlobalRange()
	}
	if c.base == seq.LInf {
		max := 0.0
		for k := 0; k < seq.PAASegments; k++ {
			lo, hi := seq.PAABounds(pe.Len, k)
			if lo >= hi {
				continue
			}
			qlo, qhi := c.paaWindow(banded, k)
			if g := intervalGap(pe.Min[k], pe.Max[k], qlo, qhi); g > max {
				max = g
			}
		}
		return max
	}
	acc := 0.0
	for k := 0; k < seq.PAASegments; k++ {
		lo, hi := seq.PAABounds(pe.Len, k)
		if lo >= hi {
			continue
		}
		qlo, qhi := c.paaWindow(banded, k)
		if g := intervalGap(pe.Min[k], pe.Max[k], qlo, qhi); g > 0 {
			acc += float64(hi-lo) * c.base.Elem(0, g)
		}
	}
	return acc
}

func (c *paaPruner) paaWindow(banded bool, k int) (float64, float64) {
	if banded {
		return c.paa.segMin[k], c.paa.segMax[k]
	}
	return c.paa.qMin, c.paa.qMax
}

func (c *paaPruner) ensureGlobalRange() {
	if c.paa.globalReady {
		return
	}
	c.paa.qMin, c.paa.qMax = c.q.MinMax()
	c.paa.globalReady = true
}

func (c *paaPruner) ensureSegWindows() {
	if c.paa.segReady {
		return
	}
	n := len(c.q)
	for k := 0; k < seq.PAASegments; k++ {
		lo, hi := seq.PAABounds(n, k)
		if lo >= hi {
			continue
		}
		wlo, whi := lo-c.band, hi-1+c.band
		if wlo < 0 {
			wlo = 0
		}
		if whi > n-1 {
			whi = n - 1
		}
		mn, mx := c.q[wlo], c.q[wlo]
		for _, v := range c.q[wlo+1 : whi+1] {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		c.paa.segMin[k], c.paa.segMax[k] = mn, mx
	}
	c.paa.segReady = true
}

// intervalGap is the smallest distance between a point of [aLo, aHi] and a
// point of [bLo, bHi]: 0 when the intervals overlap.
func intervalGap(aLo, aHi, bLo, bHi float64) float64 {
	switch {
	case aLo > bHi:
		return aLo - bHi
	case bLo > aHi:
		return bLo - aHi
	default:
		return 0
	}
}

// comparableLB converts a raw LB_Kim feature distance into the form
// comparable against a DTW distance under base: for the additive L2Sq base
// the single matched pair the bound describes contributes its squared
// difference, so the comparable bound is the square. Used by the k-NN
// walk-stop test; since x ↦ x² is monotone on the walk's nonnegative
// ascending bounds, the converted stream stays ascending and stopping on
// it is sound.
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
// Only real DP invocations increment DTWCalls.
//
// The envelope chain runs for banded equal-length candidates: banded
// LB_Keogh (Keogh's theorem; sound for BandDistance with this exact band),
// then Lemire's second pass on top of it. The band and lengths are matched
// by construction, so the safe router cannot fail here; if it ever did, the
// tier degrades to the vacuous bound rather than pruning on an unsound
// value. Every other candidate under an additive base gets the
// global-envelope LB_Keogh — each element of S pays at least its cost to
// [min Q, max Q] on any warping path, banded or not.
func (c *cascade) verify(s seq.Sequence, cutoff float64, stats *QueryStats) (float64, bool) {
	switch {
	case c.disabled || s.Empty():
	case c.band >= 1 && len(s) == len(c.q):
		kB, err := dtw.LBKeoghSafe(s, c.bandEnv, c.base, c.band)
		if err != nil {
			kB = 0
		}
		if kB > cutoff {
			stats.LBKeoghPruned++
			return dtw.Inf, false
		}
		imp := dtw.CombineImproved(kB, dtw.LBImprovedPass2(s, c.q, c.bandEnv, c.base, &c.impr), c.base)
		if imp > cutoff {
			stats.LBImprovedPruned++
			return dtw.Inf, false
		}
	case c.base != seq.LInf:
		if kS, err := dtw.LBKeoghSafe(s, c.globalEnv, c.base, -1); err == nil && kS > cutoff {
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
func (c *cascade) verifyDP(s seq.Sequence, cutoff float64, stats *QueryStats) (float64, bool) {
	if c.disabled {
		stats.DTWCalls++
		d, ok := dtw.BandDistanceWithin(s, c.q, c.base, c.kernelBand(), cutoff)
		if !ok {
			stats.DTWAbandoned++
		}
		return d, ok
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
