package dtw

import (
	"errors"
	"math"

	"repro/internal/seq"
)

// LBKim is the paper's lower-bound distance Dtw-lb (Definition 3): the L∞
// distance between the two 4-tuple feature vectors
// (First, Last, Greatest, Smallest). Theorem 1 proves LBKim(s,q) ≤
// Dtw(s,q) for the L∞ base; Theorem 2 notes it is a metric, which makes it
// safe as the distance function of a spatial index.
func LBKim(s, q seq.Sequence) float64 {
	if s.Empty() || q.Empty() {
		if s.Empty() && q.Empty() {
			return 0
		}
		return Inf
	}
	return seq.MustFeature(s).DistLInf(seq.MustFeature(q))
}

// LBKimFeatures is LBKim evaluated on pre-extracted feature vectors; the
// index uses this form so data sequences never need to be fetched during
// filtering.
func LBKimFeatures(fs, fq seq.Feature) float64 { return fs.DistLInf(fq) }

// LBYi is the scan-time lower bound of Yi, Jagadish & Faloutsos used by the
// LB-Scan baseline, adapted to the requested base distance. Every element of
// S must match at least one element of Q on any warping path, so its base
// distance to the range [Smallest(Q), Greatest(Q)] lower-bounds its matched
// cost; symmetrically for elements of Q against the range of S.
//
// For the L∞ base the bound is the maximum such element-to-range distance;
// for additive bases it is the larger of the two one-sided sums (each
// element contributes to ≥ 1 mapping, so each one-sided sum is a valid
// bound, but their sum is not). Complexity O(|S|+|Q|) after the O(1) range
// computation.
func LBYi(s, q seq.Sequence, base seq.Base) float64 {
	if s.Empty() || q.Empty() {
		if s.Empty() && q.Empty() {
			return 0
		}
		return Inf
	}
	sMin, sMax := s.MinMax()
	qMin, qMax := q.MinMax()
	if base == seq.LInf {
		max := 0.0
		for _, v := range s {
			if d := seq.DistToRange(v, qMin, qMax); d > max {
				max = d
			}
		}
		for _, v := range q {
			if d := seq.DistToRange(v, sMin, sMax); d > max {
				max = d
			}
		}
		return max
	}
	sumS, sumQ := 0.0, 0.0
	for _, v := range s {
		sumS += base.Elem(0, seq.DistToRange(v, qMin, qMax))
	}
	for _, v := range q {
		sumQ += base.Elem(0, seq.DistToRange(v, sMin, sMax))
	}
	return math.Max(sumS, sumQ)
}

// Envelope is the Keogh upper/lower envelope of a query under a Sakoe–Chiba
// band of half-width r: Upper[i] = max(q[i-r..i+r]), Lower[i] = min(...).
type Envelope struct {
	Lower, Upper []float64
	// band is the half-width the envelope was built with; only meaningful
	// when !full. LBKeoghSafe refuses to use a banded envelope for a query
	// searching under any other band.
	band int
	// full marks a GlobalEnvelope: every window is the whole query's range,
	// which is the only envelope shape whose bound survives unconstrained
	// (band-free) warping and unequal lengths. See LBKeoghSafe.
	full bool
}

// Band returns the Sakoe–Chiba half-width the envelope was built with.
// It is meaningful only for banded envelopes (not a GlobalEnvelope).
func (e Envelope) Band() int { return e.band }

// NewEnvelope builds the envelope of q for band half-width r in O(|Q|) time
// with the block sliding min/max (slidingMinMax). A negative r is clamped
// to 0 (the degenerate envelope Lower = Upper = q) instead of producing
// inverted, out-of-range windows.
func NewEnvelope(q seq.Sequence, r int) Envelope {
	if r < 0 {
		r = 0
	}
	n := len(q)
	env := Envelope{Lower: make([]float64, n), Upper: make([]float64, n), band: r}
	if n == 0 {
		return env
	}
	// r ≥ n−1 already makes every window the whole sequence, so the width
	// stops growing there.
	w := 2*min(r, n-1) + 1
	p := make([]float64, n+w-1)
	copy(p[w/2:], q)
	slidingMinMax(p, w, env.Lower, env.Upper)
	return env
}

// newEnvelopeScan is the O(|Q|·r) envelope construction (a nested rescan per
// window). It is kept purely as the test/fuzz oracle for NewEnvelope — do
// not use it on hot paths.
func newEnvelopeScan(q seq.Sequence, r int) Envelope {
	if r < 0 {
		r = 0
	}
	n := len(q)
	env := Envelope{Lower: make([]float64, n), Upper: make([]float64, n), band: r}
	for i := 0; i < n; i++ {
		lo, hi := i-r, i+r
		if lo < 0 {
			lo = 0
		}
		if hi > n-1 {
			hi = n - 1
		}
		min, max := q[lo], q[lo]
		for j := lo + 1; j <= hi; j++ {
			if q[j] < min {
				min = q[j]
			}
			if q[j] > max {
				max = q[j]
			}
		}
		env.Lower[i], env.Upper[i] = min, max
	}
	return env
}

// slidingMinMax fills lo[i], hi[i] = min, max of p[i:i+w] for every i, where
// p holds a sequence of n = len(lo) ≥ 1 elements at p[w/2:w/2+n] with w/2
// free slots either side (len(p) = n+w−1, w odd): the clipped windows
// i−r … i+r of the sequence itself. It first replicates the end elements
// into the free slots; a window the sequence's end clips always holds that
// end element, so the copies change neither its minimum nor its maximum,
// and every window becomes exactly w wide. It is the van Herk / Gil–Werman
// block algorithm: cut p into blocks of w; a window that starts at i ends
// w−1 later, in the next block (or is block i's whole), so its minimum is
// min(suffix minimum of i's block from i, prefix minimum of the next block
// up to i+w−1). The first pass leaves the suffix values in lo/hi, the second
// folds the running prefix in place — about three min and three max per
// element whatever w is, in straight-line loops with no data-dependent
// branch (a monotonic deque does fewer comparisons but branches on each,
// and random-walk data mispredicts them).
func slidingMinMax(p []float64, w int, lo, hi []float64) {
	n, r := len(lo), w/2
	for k := 0; k < r; k++ {
		p[k], p[r+n+k] = p[r], p[r+n-1]
	}
	// Every block that starts below n is whole: len(p) = n+w−1.
	for start := 0; start < n; start += w {
		k := start + w - 1
		mn, mx := p[k], p[k]
		for ; k >= n; k-- { // suffix values no window of the sequence starts at
			mn, mx = min(mn, p[k]), max(mx, p[k])
		}
		for ; k >= start; k-- {
			mn, mx = min(mn, p[k]), max(mx, p[k])
			lo[k], hi[k] = mn, mx
		}
	}
	for start := w; start < len(p); start += w {
		mn, mx := p[start], p[start]
		// The block's last slot ends the window of a block start, which the
		// suffix pass already made the whole block's.
		for k, i := start, start-w+1; k < min(start+w-1, len(p)); k, i = k+1, i+1 {
			mn, mx = min(mn, p[k]), max(mx, p[k])
			lo[i], hi[i] = min(lo[i], mn), max(hi[i], mx)
		}
	}
}

// GlobalEnvelope builds the degenerate full-band envelope of q: every window
// is [Smallest(Q), Greatest(Q)]. Unlike a banded envelope it lower-bounds the
// *unconstrained* time warping distance of the paper, because any warping
// path matches each element of S to some element of Q, which necessarily lies
// inside the global range — no band assumption needed. It is also the only
// envelope that remains sound when |S| ≠ |Q| (the window is
// position-independent). The resulting LBKeoghSafe value equals the S-side
// of LBYi; the cascade runs it as the LB_Keogh tier for the pairs the banded
// envelope cannot bound under an additive base (under L∞ it is below the
// LB_Kim the index walk applies).
func GlobalEnvelope(q seq.Sequence) Envelope {
	n := len(q)
	env := Envelope{Lower: make([]float64, n), Upper: make([]float64, n), full: true}
	if n == 0 {
		return env
	}
	min, max := q.MinMax()
	for i := range env.Lower {
		env.Lower[i], env.Upper[i] = min, max
	}
	return env
}

// ErrUnsoundBound reports an envelope/band combination for which no sound
// Keogh-style lower bound exists: pruning on any value the function could
// return might falsely dismiss a true match. Callers must treat it as "this
// tier cannot run", never as "the bound is 0".
var ErrUnsoundBound = errors.New("dtw: envelope cannot soundly bound the requested distance")

// LBKeoghSafe is the cascade-safe form of LBKeogh: the returned value never
// exceeds BandDistance(s, q, base, band) for the query the envelope was
// built from, so pruning on it can never falsely dismiss. band follows the
// BandDistance convention: negative means the unconstrained distance,
// band ≥ 0 the Sakoe–Chiba half-width the caller searches under.
//
// Routing:
//
//   - A GlobalEnvelope is sound for every band: it bounds the unconstrained
//     distance (any warping path matches each element of S to some element
//     of Q inside the global range), and BandDistance ≥ Distance because a
//     band only removes permissible paths. Works for unequal lengths too —
//     the window is position-independent.
//   - A banded envelope bounds only the *banded* distance with the same
//     half-width it was built from, and only for equal lengths (a
//     counterexample for the unconstrained case: s = 0…0,5 and q = 0,5…5
//     have Dtw = 0 under L∞ but banded LBKeogh ≈ 5). When the caller's band
//     matches and |S| = |Q|, this routes to the sound banded LBKeogh.
//   - Every other combination — banded envelope with an unconstrained query,
//     a different band, or unequal lengths — has no sound bound here and
//     returns ErrUnsoundBound. Earlier revisions silently returned the
//     vacuous bound 0 instead, which hid exactly this class of caller bug
//     and made the envelope tier dead weight.
func LBKeoghSafe(s seq.Sequence, env Envelope, base seq.Base, band int) (float64, error) {
	if len(env.Lower) == 0 || s.Empty() {
		return 0, nil
	}
	if !env.full {
		if band < 0 || band != env.band || len(s) != len(env.Lower) {
			return 0, ErrUnsoundBound
		}
		return LBKeogh(s, env, base), nil
	}
	lo, hi := env.Lower[0], env.Upper[0]
	if base == seq.LInf {
		max := 0.0
		for _, v := range s {
			if d := seq.DistToRange(v, lo, hi); d > max {
				max = d
			}
		}
		return max, nil
	}
	acc := 0.0
	for _, v := range s {
		acc += base.Elem(0, seq.DistToRange(v, lo, hi))
	}
	return acc, nil
}

// LBKeogh computes Keogh's envelope lower bound of the *banded* time warping
// distance BandDistance(s, q, base, r), where env must have been built from
// q with the same r and |S| must equal |Q| (the bound is defined for
// equal-length sequences). It returns +Inf when the lengths differ, which is
// trivially a safe answer only for pruning equal-length workloads — callers
// handle mixed-length data with LBKim/LBYi instead.
//
// This is a post-paper extension: the cascade's LB_Keogh tier for banded
// equal-length pairs, the last bound before the banded DP.
func LBKeogh(s seq.Sequence, env Envelope, base seq.Base) float64 {
	if len(s) != len(env.Lower) {
		return Inf
	}
	if base == seq.LInf {
		max := 0.0
		for i, v := range s {
			if d := seq.DistToRange(v, env.Lower[i], env.Upper[i]); d > max {
				max = d
			}
		}
		return max
	}
	acc := 0.0
	for i, v := range s {
		acc += base.Elem(0, seq.DistToRange(v, env.Lower[i], env.Upper[i]))
	}
	return acc
}
