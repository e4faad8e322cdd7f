// Package dtw implements the time warping distance of the paper
// (Definitions 1 and 2) with a dynamic program, an early-abandoning variant
// driven by a search tolerance, warping path recovery, a Sakoe–Chiba banded
// variant, and the family of lower-bound functions the evaluated methods
// rely on: Yi et al.'s scan-time bound (LB-Scan), the paper's Dtw-lb
// (LB_Kim), and LB_Keogh as a later-work extension.
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
// O(min(|S|,|Q|)) memory.
//
// For base seq.LInf this is Definition 2: the cost of a warping path is the
// maximum element-pair difference along it, and the distance is the minimum
// over all paths. For seq.L1/seq.L2Sq costs accumulate additively
// (Definition 1).
//
// The DP rows come from a sync.Pool and the inner loop is specialized per
// base (see kernel.go), so steady-state calls allocate nothing for
// sequences up to PooledRowCap.
func Distance(s, q seq.Sequence, base seq.Base) float64 {
	switch {
	case s.Empty() && q.Empty():
		return 0
	case s.Empty() || q.Empty():
		return Inf
	}
	// Keep the inner loop over the shorter sequence to bound memory.
	if len(q) > len(s) {
		s, q = q, s
	}
	switch base {
	case seq.LInf:
		return distKernelLInf(s, q)
	case seq.L1:
		return distKernelAdd(s, q, false)
	case seq.L2Sq:
		return distKernelAdd(s, q, true)
	default:
		return distanceGeneric(s, q, base)
	}
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
	switch {
	case s.Empty() && q.Empty():
		return 0, 0 <= epsilon
	case s.Empty() || q.Empty():
		return Inf, false
	}
	if epsilon < 0 {
		return Inf, false
	}
	// Cheap O(1) pre-check: the first and last elements always map to each
	// other in any warping path.
	if base.Elem(s[0], q[0]) > epsilon || base.Elem(s[len(s)-1], q[len(q)-1]) > epsilon {
		return Inf, false
	}
	if len(q) > len(s) {
		s, q = q, s
	}
	switch base {
	case seq.LInf:
		return withinKernelLInf(s, q, epsilon)
	case seq.L1:
		return withinKernelAdd(s, q, false, epsilon)
	case seq.L2Sq:
		return withinKernelAdd(s, q, true, epsilon)
	default:
		return withinGeneric(s, q, base, epsilon)
	}
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
	if r < 0 {
		return Distance(s, q, base)
	}
	switch {
	case s.Empty() && q.Empty():
		return 0
	case s.Empty() || q.Empty():
		return Inf
	}
	n, m := len(s), len(q)
	if n == 1 || m == 1 {
		// A single row (or column) must traverse the whole other sequence;
		// no band can constrain it.
		return Distance(s, q, base)
	}
	// Slope-normalize the band so corner cells stay reachable for unequal
	// lengths: the band follows the stretched diagonal j ≈ i·(m-1)/(n-1).
	slope := float64(m-1) / float64(n-1)
	// Consecutive row centers advance by up to ⌈slope⌉ columns; ranges of
	// half-width w connect (lo_i ≤ hi_{i-1}+1) iff that advance is ≤ 2w+1.
	// Widen r to the smallest w that guarantees it, ⌈(⌈slope⌉−1)/2⌉, which
	// is 0 for slope ≤ 1 (the classic equal-length band is untouched).
	halfWidth := r
	if minHalf := int(math.Ceil(slope)) / 2; minHalf > halfWidth {
		halfWidth = minHalf
	}
	rp := acquireRows(m)
	defer releaseRows(rp)
	prev, cur := rp.prev, rp.cur
	for j := range prev {
		prev[j] = Inf
		cur[j] = Inf
	}
	lo0, hi0 := bandRange(0, slope, halfWidth, m)
	for j := lo0; j <= hi0; j++ {
		e := base.Elem(s[0], q[j])
		if j == 0 {
			prev[j] = e
		} else if prev[j-1] < Inf {
			prev[j] = base.Combine(e, prev[j-1])
		}
	}
	for i := 1; i < n; i++ {
		lo, hi := bandRange(i, slope, halfWidth, m)
		for j := 0; j < m; j++ {
			cur[j] = Inf
		}
		for j := lo; j <= hi; j++ {
			best := prev[j]
			if j > 0 {
				if cur[j-1] < best {
					best = cur[j-1]
				}
				if prev[j-1] < best {
					best = prev[j-1]
				}
			}
			if math.IsInf(best, 1) {
				continue
			}
			cur[j] = base.Combine(base.Elem(s[i], q[j]), best)
		}
		prev, cur = cur, prev
	}
	return prev[m-1]
}

// BandDistanceWithin is BandDistance with early abandoning: it returns
// (d, true) with the exact banded distance when d ≤ epsilon and (+Inf,
// false) as soon as every cell of a band row exceeds epsilon (cell values
// never decrease along a path, so no completion can come back under it).
// It is the reference loop Refiner.BandDistanceWithin, which the banded
// refine path runs, is tested against bit for bit. r < 0 falls back to
// DistanceWithin.
func BandDistanceWithin(s, q seq.Sequence, base seq.Base, r int, epsilon float64) (float64, bool) {
	if r < 0 {
		return DistanceWithin(s, q, base, epsilon)
	}
	switch {
	case s.Empty() && q.Empty():
		return 0, 0 <= epsilon
	case s.Empty() || q.Empty():
		return Inf, false
	}
	if epsilon < 0 {
		return Inf, false
	}
	// O(1) pre-check: the corner cells lie on every path, banded or not.
	if base.Elem(s[0], q[0]) > epsilon || base.Elem(s[len(s)-1], q[len(q)-1]) > epsilon {
		return Inf, false
	}
	n, m := len(s), len(q)
	if n == 1 || m == 1 {
		return DistanceWithin(s, q, base, epsilon)
	}
	slope := float64(m-1) / float64(n-1)
	halfWidth := r
	if minHalf := int(math.Ceil(slope)) / 2; minHalf > halfWidth {
		halfWidth = minHalf
	}
	rp := acquireRows(m)
	defer releaseRows(rp)
	prev, cur := rp.prev, rp.cur
	for j := range prev {
		prev[j] = Inf
		cur[j] = Inf
	}
	lo0, hi0 := bandRange(0, slope, halfWidth, m)
	for j := lo0; j <= hi0; j++ {
		e := base.Elem(s[0], q[j])
		if j == 0 {
			prev[j] = e
		} else if prev[j-1] < Inf {
			prev[j] = base.Combine(e, prev[j-1])
		}
	}
	for i := 1; i < n; i++ {
		lo, hi := bandRange(i, slope, halfWidth, m)
		for j := 0; j < m; j++ {
			cur[j] = Inf
		}
		alive := false
		for j := lo; j <= hi; j++ {
			best := prev[j]
			if j > 0 {
				if cur[j-1] < best {
					best = cur[j-1]
				}
				if prev[j-1] < best {
					best = prev[j-1]
				}
			}
			if math.IsInf(best, 1) {
				continue
			}
			v := base.Combine(base.Elem(s[i], q[j]), best)
			cur[j] = v
			if v <= epsilon {
				alive = true
			}
		}
		if !alive {
			return Inf, false
		}
		prev, cur = cur, prev
	}
	if d := prev[m-1]; d <= epsilon {
		return d, true
	}
	return Inf, false
}

func bandRange(i int, slope float64, r, m int) (lo, hi int) {
	center := int(math.Round(float64(i) * slope))
	lo, hi = center-r, center+r
	if lo < 0 {
		lo = 0
	}
	if hi > m-1 {
		hi = m - 1
	}
	return lo, hi
}

// NormalizedDistance returns the time warping distance divided by the
// length of an optimal warping path — the classical per-step normalization
// for additive bases, which makes tolerances comparable across sequence
// lengths without switching to the L∞ base. For seq.LInf the distance is
// already length-independent (the paper's §4.1 argument) and is returned
// unchanged.
func NormalizedDistance(s, q seq.Sequence, base seq.Base) float64 {
	if base == seq.LInf {
		return Distance(s, q, base)
	}
	d, path := DistancePath(s, q, base)
	if len(path) == 0 {
		return d
	}
	return d / float64(len(path))
}
