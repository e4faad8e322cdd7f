package twsim

import (
	"repro/internal/dtw"
	"repro/internal/seq"
)

// Distance computes the exact time warping distance between two sequences
// of arbitrary lengths under the given base distance (the paper's
// Definition 1/2) in O(len(s)·len(q)) time and O(min) memory.
func Distance(s, q []float64, base Base) float64 {
	return BandDistance(s, q, base, -1)
}

// DistanceWithin computes the time warping distance but abandons early once
// the result provably exceeds epsilon, returning ok=false in that case.
func DistanceWithin(s, q []float64, base Base, epsilon float64) (d float64, ok bool) {
	return bandDistanceWithin(s, q, base, -1, epsilon)
}

// BandDistance computes the time warping distance restricted to a
// slope-normalized Sakoe–Chiba band of half-width r (r < 0 disables the
// band). A band constrains warping, so the result is ≥ Distance.
func BandDistance(s, q []float64, base Base, r int) float64 {
	d, _ := bandDistanceWithin(s, q, base, r, dtw.Inf)
	return d
}

// bandDistanceWithin runs one pair through a pooled dtw.Refiner, the kernel
// every search refines with; at epsilon +Inf it is the full distance.
func bandDistanceWithin(s, q []float64, base Base, r int, epsilon float64) (float64, bool) {
	rf := dtw.AcquireRefiner()
	defer rf.Release()
	d, v := rf.BandDistanceWithin(seq.Sequence(s), seq.Sequence(q), base, r, epsilon)
	return d, v == dtw.VerdictWithin
}

// NormalizedDistance returns the time warping distance divided by the
// optimal warping path length for additive bases (making tolerances
// comparable across lengths); for BaseLInf the distance is already
// length-independent and is returned unchanged.
func NormalizedDistance(s, q []float64, base Base) float64 {
	return dtw.NormalizedDistance(seq.Sequence(s), seq.Sequence(q), base)
}

// ItakuraDistance computes the time warping distance restricted to the
// Itakura parallelogram (global path slope within [1/2, 2]). The result is
// ≥ Distance and +Inf when the length ratio admits no legal path.
func ItakuraDistance(s, q []float64, base Base) float64 {
	return dtw.ItakuraDistance(seq.Sequence(s), seq.Sequence(q), base)
}

// WarpingPath returns the exact time warping distance together with one
// optimal warping path as (i, j) element-mapping pairs.
func WarpingPath(s, q []float64, base Base) (float64, []PathStep) {
	d, p := dtw.DistancePath(seq.Sequence(s), seq.Sequence(q), base)
	out := make([]PathStep, len(p))
	for i, st := range p {
		out[i] = PathStep{I: st.I, J: st.J}
	}
	return d, out
}

// PathStep is one element mapping of a warping path: element I of s matched
// with element J of q.
type PathStep struct {
	I, J int
}

// LowerBound computes the paper's Dtw-lb (Definition 3, known as LB_Kim):
// the L∞ distance between the two 4-tuple feature vectors. It never exceeds
// Distance(s, q, BaseLInf) and satisfies the triangular inequality.
func LowerBound(s, q []float64) float64 {
	return dtw.LBKim(seq.Sequence(s), seq.Sequence(q))
}

// LowerBoundYi computes Yi et al.'s O(len(s)+len(q)) scan-time lower bound
// of the time warping distance (the filter of the LB-Scan baseline).
func LowerBoundYi(s, q []float64, base Base) float64 {
	return dtw.LBYi(seq.Sequence(s), seq.Sequence(q), base)
}

// Feature extracts the paper's time-warping-invariant 4-tuple
// (First, Last, Greatest, Smallest) from a non-empty sequence.
func Feature(s []float64) (first, last, greatest, smallest float64, err error) {
	f, err := seq.ExtractFeature(seq.Sequence(s))
	if err != nil {
		return 0, 0, 0, 0, err
	}
	return f.First, f.Last, f.Greatest, f.Smallest, nil
}
