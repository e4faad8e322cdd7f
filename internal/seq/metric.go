package seq

import (
	"fmt"
	"math"
)

// Base identifies the per-element base distance Dbase used inside the time
// warping distance. The paper's similarity model (Definition 2) uses LInf;
// the classic DTW from Berndt & Clifford and Yi et al. uses L1. The DP
// combination rule differs: additive bases accumulate with +, LInf combines
// with max.
type Base int

const (
	// LInf takes the maximum element-pair difference along the warping
	// path (paper Definition 2).
	LInf Base = iota
	// L1 sums absolute element-pair differences along the warping path
	// (Definition 1 with p=1).
	L1
	// L2Sq sums squared element-pair differences along the warping path.
	// Note the conventional DTW-with-L2 accumulates squared terms; callers
	// wanting a Euclidean-flavoured value take the square root of the
	// final distance themselves.
	L2Sq
)

// String implements fmt.Stringer.
func (b Base) String() string {
	switch b {
	case LInf:
		return "Linf"
	case L1:
		return "L1"
	case L2Sq:
		return "L2sq"
	default:
		return fmt.Sprintf("Base(%d)", int(b))
	}
}

// Elem returns the base distance between two elements.
func (b Base) Elem(x, y float64) float64 {
	d := math.Abs(x - y)
	if b == L2Sq {
		return d * d
	}
	return d
}

// Combine merges an element cost with the best cost of the preceding DP
// cell: addition for accumulating bases, max for LInf.
func (b Base) Combine(elem, prev float64) float64 {
	if b == LInf {
		return math.Max(elem, prev)
	}
	return elem + prev
}

// Lp computes the classic same-length Lp distance of the paper's §2 for
// p = 1, 2 or ∞. It returns an error when the sequences differ in length,
// which is exactly the limitation time warping removes.
func Lp(p float64, s, q Sequence) (float64, error) {
	if len(s) != len(q) {
		return 0, fmt.Errorf("seq: Lp needs equal lengths, got %d and %d", len(s), len(q))
	}
	if math.IsInf(p, 1) {
		max := 0.0
		for i := range s {
			if d := math.Abs(s[i] - q[i]); d > max {
				max = d
			}
		}
		return max, nil
	}
	if p < 1 {
		return 0, fmt.Errorf("seq: Lp needs p >= 1, got %g", p)
	}
	acc := 0.0
	for i := range s {
		acc += math.Pow(math.Abs(s[i]-q[i]), p)
	}
	return math.Pow(acc, 1/p), nil
}

// Euclid is the L2 distance for equal-length sequences.
func Euclid(s, q Sequence) (float64, error) { return Lp(2, s, q) }

// DistToRange returns the distance from value v to the closed interval
// [lo, hi]: zero when v lies inside. Used by the scan-time lower bounds and
// by the suffix-tree traversal over category intervals.
func DistToRange(v, lo, hi float64) float64 {
	switch {
	case v < lo:
		return lo - v
	case v > hi:
		return v - hi
	default:
		return 0
	}
}
