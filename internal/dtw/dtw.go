// Package dtw implements the time warping distance of the paper
// (Definitions 1 and 2) with a dynamic program, an early-abandoning variant
// driven by a search tolerance, warping path recovery, a Sakoe–Chiba banded
// variant, and the family of lower-bound functions the evaluated methods
// rely on: Yi et al.'s scan-time bound (LB-Scan), the paper's Dtw-lb
// (LB_Kim), and LB_Keogh as a later-work extension.
//
// Distance, DistanceWithin, BandDistance and BandDistanceWithin are the
// oracle: one plain textbook DP loop that the tests, the disabled cascade
// and the benchmark's checker compare against. Serving and scan paths use
// Refiner, which returns the same bits.
//
// Conventions: every Distance-style function returns +Inf when either input
// is empty (Definition 1: Dtw(S, <>) = Dtw(<>, Q) = ∞) except for the pair
// of empty sequences, whose distance is 0.
package dtw

import (
	"math"

	"repro/internal/seq"
)

// Inf is the distance reported for undefined comparisons and by abandoned
// computations.
var Inf = math.Inf(1)

// Distance computes the exact time warping distance between s and q under
// the given base distance using the standard O(|S|·|Q|) dynamic program with
// O(min(|S|,|Q|)) memory. It is the oracle; serving and scan paths use
// Refiner.
//
// For base seq.LInf this is Definition 2: the cost of a warping path is the
// maximum element-pair difference along it, and the distance is the minimum
// over all paths. For seq.L1/seq.L2Sq costs accumulate additively
// (Definition 1).
func Distance(s, q seq.Sequence, base seq.Base) float64 {
	return BandDistance(s, q, base, -1)
}

// DistanceWithin computes the time warping distance but abandons as soon as
// it can prove the result exceeds epsilon, returning (+Inf, false) in that
// case. When the distance is within epsilon it returns (d, true) with the
// exact value d.
//
// Early abandoning exploits the DP's monotonicity: cell values never
// decrease along a path, so once every cell of a row exceeds epsilon no
// completion can come back under it. With the L∞ base this triggers
// especially early (§4.1: "the decisions happen each time the distance
// between any element pair exceeds a tolerance").
func DistanceWithin(s, q seq.Sequence, base seq.Base, epsilon float64) (float64, bool) {
	return BandDistanceWithin(s, q, base, -1, epsilon)
}

// Within reports whether Dtw(s,q) ≤ epsilon, abandoning early when possible.
func Within(s, q seq.Sequence, base seq.Base, epsilon float64) bool {
	_, ok := DistanceWithin(s, q, base, epsilon)
	return ok
}

// BandDistance computes the time warping distance restricted to a
// Sakoe–Chiba band of half-width r around the diagonal: cell (i,j) is only
// reachable when |i·|Q|/|S| − j| ≤ r after slope normalization. r < 0 means
// no band (identical to Distance). A band is an *extension* relative to the
// paper — it constrains permissible warpings and therefore returns a value
// ≥ the unconstrained distance.
//
// The effective half-width is never allowed below ⌈⌈slope⌉−1⌉/2: when the
// lengths are very different (steep slope) consecutive rows' band ranges
// would otherwise be disjoint and no banded path would exist at all.
// With that floor a banded path always exists, so BandDistance is finite
// for any r ≥ 0 whenever both sequences are non-empty.
func BandDistance(s, q seq.Sequence, base seq.Base, r int) float64 {
	switch {
	case s.Empty() && q.Empty():
		return 0
	case s.Empty() || q.Empty():
		return Inf
	}
	s, q, cols := sakoeChiba(s, q, r)
	return reference(s, q, base, Inf, cols)
}

// BandDistanceWithin is BandDistance with early abandoning: it returns
// (d, true) with the exact banded distance when d ≤ epsilon and (+Inf,
// false) as soon as every cell of a band row exceeds epsilon. It is the
// reference Refiner.BandDistanceWithin is tested against bit for bit.
// r < 0 is DistanceWithin.
func BandDistanceWithin(s, q seq.Sequence, base seq.Base, r int, epsilon float64) (float64, bool) {
	switch {
	case s.Empty() && q.Empty():
		return 0, 0 <= epsilon
	case s.Empty() || q.Empty():
		return Inf, false
	}
	s, q, cols := sakoeChiba(s, q, r)
	if d := reference(s, q, base, epsilon, cols); d <= epsilon {
		return d, true
	}
	return Inf, false
}

// sakoeChiba returns the pair in the orientation the reference runs it and
// the Sakoe–Chiba column range of each row. Unbanded (r < 0), and a single
// row or column, which no band can constrain, admit the whole row, with the
// rows over the longer sequence so the DP rows are the shorter ones. A band
// keeps the orientation (it is not symmetric under transposition for
// unequal lengths) and follows the stretched diagonal j ≈ i·(m−1)/(n−1).
func sakoeChiba(s, q seq.Sequence, r int) (seq.Sequence, seq.Sequence, func(i int) (lo, hi int)) {
	n, m := len(s), len(q)
	if r < 0 || n == 1 || m == 1 {
		if m > n {
			s, q, m = q, s, n
		}
		return s, q, func(int) (int, int) { return 0, m - 1 }
	}
	slope := float64(m-1) / float64(n-1)
	// Consecutive row centers advance by up to ⌈slope⌉ columns; ranges of
	// half-width w connect (lo_i ≤ hi_{i-1}+1) iff that advance is ≤ 2w+1.
	// Widen r to the smallest w that guarantees it, ⌈(⌈slope⌉−1)/2⌉, which
	// is 0 for slope ≤ 1 (the classic equal-length band is untouched).
	halfWidth := max(r, int(math.Ceil(slope))/2)
	return s, q, func(i int) (int, int) { return bandRange(i, slope, halfWidth, m) }
}

func bandRange(i int, slope float64, r, m int) (lo, hi int) {
	center := int(math.Round(float64(i) * slope))
	return max(center-r, 0), min(center+r, m-1)
}

// reference is the one DP loop behind every package-level distance:
// Definitions 1 and 2 computed row by row over s, each cell combining its
// element cost with the cheapest of its three predecessors by base.Combine.
// Row i computes only the columns cols(i) admits; every other cell is +Inf,
// a cell no warping path may cross. It returns the final cell, or +Inf as
// soon as a row has no cell ≤ epsilon (cell values never decrease along a
// path, so no completion can come back under it). Nothing exceeds +Inf, NaN
// included, so epsilon = +Inf never abandons. Requires non-empty s and q.
func reference(s, q seq.Sequence, base seq.Base, epsilon float64, cols func(i int) (lo, hi int)) float64 {
	m := len(q)
	prev, cur := make([]float64, m), make([]float64, m)
	for j := range prev {
		prev[j] = Inf // the row above row 0
	}
	for i := range s {
		for j := range cur {
			cur[j] = Inf
		}
		lo, hi := cols(i)
		alive := false
		for j := lo; j <= hi; j++ {
			e := base.Elem(s[i], q[j])
			if i == 0 && j == 0 {
				cur[0] = e
			} else {
				best := prev[j]
				if j > 0 {
					if cur[j-1] < best {
						best = cur[j-1]
					}
					if prev[j-1] < best {
						best = prev[j-1]
					}
				}
				cur[j] = base.Combine(e, best)
			}
			if !(cur[j] > epsilon) {
				alive = true
			}
		}
		if !alive {
			return Inf
		}
		prev, cur = cur, prev
	}
	return prev[m-1]
}

// NormalizedDistance returns the time warping distance divided by the
// length of an optimal warping path — the classical per-step normalization
// for additive bases, which makes tolerances comparable across sequence
// lengths without switching to the L∞ base. For seq.LInf the distance is
// already length-independent (the paper's §4.1 argument) and is returned
// unchanged.
func NormalizedDistance(s, q seq.Sequence, base seq.Base) float64 {
	if base == seq.LInf {
		r := AcquireRefiner()
		defer r.Release()
		d, _ := r.BandDistanceWithin(s, q, base, -1, Inf)
		return d
	}
	d, path := DistancePath(s, q, base)
	if len(path) == 0 {
		return d
	}
	return d / float64(len(path))
}
