package dtw

import (
	"math"

	"repro/internal/seq"
)

// This file implements Lemire's two-pass LB_Improved lower bound for the
// Sakoe–Chiba banded time warping distance ("Faster Retrieval with a
// Two-Pass Dynamic-Time-Warping Lower Bound", Pattern Recognition 2009).
// The query cascade does not run it — its second pass cost about what the
// banded DP it saved did (DESIGN.md §8) — but the tests hold the bound chain
// LB_Keogh ≤ LB_Improved ≤ BandDistance with it.
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

// LBImproved computes Lemire's two-pass lower bound of BandDistance(s, q,
// base, band). env must be the banded envelope of q built with the same
// half-width (NewEnvelope(q, band)) and the lengths must match — every
// other combination has no sound bound and returns ErrUnsoundBound, exactly
// like LBKeoghSafe.
func LBImproved(s, q seq.Sequence, env Envelope, base seq.Base, band int) (float64, error) {
	if s.Empty() && q.Empty() {
		return 0, nil
	}
	if env.full || band < 0 || band != env.band || len(s) != len(q) || len(s) != len(env.Lower) {
		return 0, ErrUnsoundBound
	}
	pass1 := LBKeogh(s, env, base)
	pass2 := LBKeogh(q, NewEnvelope(projection(s, env), band), base)
	if base == seq.LInf {
		return math.Max(pass1, pass2), nil
	}
	return pass1 + pass2, nil
}

// projection is Lemire's H: s clamped into env position by position.
func projection(s seq.Sequence, env Envelope) seq.Sequence {
	h := make(seq.Sequence, len(s))
	for i, v := range s {
		h[i] = min(max(v, env.Lower[i]), env.Upper[i])
	}
	return h
}
