package dtw

import (
	"math"

	"repro/internal/seq"
)

// This file implements Lemire's two-pass LB_Improved lower bound for the
// Sakoe–Chiba banded time warping distance ("Faster Retrieval with a
// Two-Pass Dynamic-Time-Warping Lower Bound", Pattern Recognition 2009).
//
// Pass 1 is the classic LB_Keogh(S, Env_r(Q)). Pass 2 projects S onto the
// envelope — H[i] = clamp(S[i] into [Lower[i], Upper[i]]) — and measures how
// far Q lies outside the envelope of H: LB_Keogh(Q, Env_r(H)). For a matched
// pair (i, j) of any banded path (|i−j| ≤ r):
//
//   - additive bases: e(s_i, q_j) ≥ e(s_i, h_i) + e(h_i, q_j), because
//     q_j ∈ [Lower_i, Upper_i] and h_i is the projection of s_i onto that
//     interval, so h_i lies between s_i and q_j (|x−y| = |x−h|+|h−y| for
//     collinear reals; (x−y)² ≥ (x−h)² + (h−y)² follows from (a+b)² ≥ a²+b²
//     for a, b ≥ 0). Summing the s-side terms over i (each matched ≥ once)
//     gives pass 1; summing the q-side terms over j, with e(h_i, q_j) ≥
//     dist(q_j, Env_r(H)_j) because |i−j| ≤ r puts h_i inside q_j's window,
//     gives pass 2. Their SUM lower-bounds the banded distance.
//   - L∞: each pass individually lower-bounds the banded distance (the same
//     per-pair inequalities, taken under max instead of sum), so their MAX
//     does too.
//
// CombineImproved encodes the sum-vs-max rule.

// ImprovedScratch holds the reusable buffers LBImprovedPass2 needs (the
// projected sequence H in slidingMinMax's padded layout, and its envelope),
// so steady-state cascade calls allocate nothing. The zero value is ready to
// use.
type ImprovedScratch struct {
	p, lo, hi []float64
}

// LBImprovedPass2 computes the second pass of LB_Improved: LB_Keogh(Q,
// Env_r(H)) where H is S clamped into env. The caller must guarantee env is
// a banded envelope of q with |S| = |Q| = len(env) (LBImproved checks;
// the cascade guarantees it by construction). Cost is O(|S|) — one clamp
// pass, one block min/max envelope pass, one scan.
func LBImprovedPass2(s, q seq.Sequence, env Envelope, base seq.Base, sc *ImprovedScratch) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	if cap(sc.lo) < n {
		sc.lo, sc.hi = make([]float64, n), make([]float64, n)
	}
	p, w := padWindows(sc.p, n, env.band)
	sc.p = p
	lo, hi := sc.lo[:n], sc.hi[:n]
	h := p[w/2 : w/2+n]
	for i, v := range s {
		h[i] = min(max(v, env.Lower[i]), env.Upper[i])
	}
	slidingMinMax(p, w, lo, hi)
	if base == seq.LInf {
		max := 0.0
		for j, v := range q {
			if d := seq.DistToRange(v, lo[j], hi[j]); d > max {
				max = d
			}
		}
		return max
	}
	acc := 0.0
	for j, v := range q {
		acc += base.Elem(0, seq.DistToRange(v, lo[j], hi[j]))
	}
	return acc
}

// CombineImproved merges pass 1 (LB_Keogh(S, Env_r(Q))) and pass 2 into the
// full LB_Improved value: the passes add for additive bases and take the max
// under L∞ (see the soundness note at the top of this file).
func CombineImproved(pass1, pass2 float64, base seq.Base) float64 {
	if base == seq.LInf {
		return math.Max(pass1, pass2)
	}
	return pass1 + pass2
}

// LBImproved computes Lemire's two-pass lower bound of BandDistance(s, q,
// base, band). env must be the banded envelope of q built with the same
// half-width (NewEnvelope(q, band)) and the lengths must match — every
// other combination has no sound bound and returns ErrUnsoundBound, exactly
// like LBKeoghSafe. The convenience form allocates its own scratch; the
// cascade uses LBImprovedPass2 with a per-query ImprovedScratch instead.
func LBImproved(s, q seq.Sequence, env Envelope, base seq.Base, band int) (float64, error) {
	if s.Empty() && q.Empty() {
		return 0, nil
	}
	if env.full || band < 0 || band != env.band || len(s) != len(q) || len(s) != len(env.Lower) {
		return 0, ErrUnsoundBound
	}
	pass1 := LBKeogh(s, env, base)
	var sc ImprovedScratch
	pass2 := LBImprovedPass2(s, q, env, base, &sc)
	return CombineImproved(pass1, pass2, base), nil
}
