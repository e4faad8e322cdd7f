package dtw

import "repro/internal/seq"

// ItakuraDistance computes the time warping distance restricted to the
// Itakura parallelogram: warping paths whose global slope stays within
// [1/2, 2] relative to the diagonal. Together with the Sakoe–Chiba band
// (BandDistance) these are the two classical global path constraints from
// the speech-recognition literature the paper's Definition 1 descends
// from. A constraint can only remove paths, so the result is ≥ the
// unconstrained Distance; it is +Inf when no legal path exists (e.g. when
// one sequence is more than twice the length of the other).
func ItakuraDistance(s, q seq.Sequence, base seq.Base) float64 {
	switch {
	case s.Empty() && q.Empty():
		return 0
	case s.Empty() || q.Empty():
		return Inf
	}
	n, m := len(s), len(q)
	// The corners themselves break the slope limits.
	if 2*(n-1) < m-1 || 2*(m-1) < n-1 {
		return Inf
	}
	// Cell (i, j) is legal when it is reachable from (0,0) and can reach
	// (n-1, m-1) under slope limits [1/2, 2]:
	//   j <= 2i,            j >= i/2            (from the start corner)
	//   m-1-j <= 2(n-1-i),  m-1-j >= (n-1-i)/2  (to the end corner)
	// Each is a half-line in j, so row i's legal cells are one range.
	return reference(s, q, base, Inf, func(i int) (lo, hi int) {
		ri := n - 1 - i
		return max((i+1)/2, m-1-2*ri), min(2*i, m-1-(ri+1)/2)
	})
}
