// Package seq defines the sequence model used throughout the repository:
// variable-length lists of float64 elements, the 4-tuple feature vector that
// is invariant under time warping (First, Last, Greatest, Smallest), and the
// element-wise Lp metrics the distance functions are built from.
package seq

import (
	"errors"
	"fmt"
	"math"
)

// ID identifies a sequence inside a database. IDs are assigned densely by
// the storage layer starting from 0.
type ID uint32

// InvalidID is returned by lookups that fail to resolve a sequence.
const InvalidID = ID(math.MaxUint32)

// Sequence is an ordered list of numeric elements. The zero value is the
// empty sequence. Sequences are value-like: functions in this repository
// never mutate a Sequence they were handed.
type Sequence []float64

// ErrEmpty is returned by operations that are undefined on empty sequences.
var ErrEmpty = errors.New("seq: empty sequence")

// ErrNonFinite is returned by the validating entry points when a sequence
// or query contains a NaN or ±Inf element. Non-finite values poison the
// similarity machinery silently — a NaN feature component makes every
// R-tree MBR comparison false, so whether the index finds the sequence is an
// accident, and its distance depends on which DP loop reads the NaN (the
// refiner reads it as +∞, the reference DP's math.Max propagates it) — a
// divergence that would break the paper's no-false-dismissal guarantee.
// Rejecting the values at the boundary is what keeps Theorem 1 sound.
var ErrNonFinite = errors.New("seq: non-finite element (NaN or ±Inf)")

// CheckFinite returns nil when every element of s is finite, and an error
// wrapping ErrNonFinite identifying the first offending element otherwise.
// The scan is a single branch per element (v-v is NaN exactly for NaN and
// ±Inf), so validating at every Add/Search boundary costs one pass.
func CheckFinite(s Sequence) error {
	for i, v := range s {
		if v-v != 0 {
			return fmt.Errorf("%w: element %d is %v", ErrNonFinite, i, v)
		}
	}
	return nil
}

// Len returns the number of elements, |S| in the paper's notation.
func (s Sequence) Len() int { return len(s) }

// Empty reports whether the sequence has no elements.
func (s Sequence) Empty() bool { return len(s) == 0 }

// First returns the first element. It panics on an empty sequence; callers
// that may hold empty sequences should check Empty first.
func (s Sequence) First() float64 { return s[0] }

// Last returns the final element. It panics on an empty sequence.
func (s Sequence) Last() float64 { return s[len(s)-1] }

// Rest returns the subsequence from position 2 to the end (paper §2). The
// returned slice aliases the receiver.
func (s Sequence) Rest() Sequence { return s[1:] }

// Greatest returns the largest element. It panics on an empty sequence.
func (s Sequence) Greatest() float64 {
	g := s[0]
	for _, v := range s[1:] {
		if v > g {
			g = v
		}
	}
	return g
}

// Smallest returns the smallest element. It panics on an empty sequence.
func (s Sequence) Smallest() float64 {
	m := s[0]
	for _, v := range s[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// MinMax returns the smallest and greatest element in one pass.
func (s Sequence) MinMax() (min, max float64) {
	min, max = s[0], s[0]
	for _, v := range s[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max
}

// Mean returns the arithmetic mean of the elements.
func (s Sequence) Mean() float64 {
	if len(s) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// Std returns the population standard deviation of the elements. The paper's
// query generator perturbs each element by a random value in [-std/2, std/2].
func (s Sequence) Std() float64 {
	if len(s) == 0 {
		return 0
	}
	mean := s.Mean()
	acc := 0.0
	for _, v := range s {
		d := v - mean
		acc += d * d
	}
	return math.Sqrt(acc / float64(len(s)))
}

// Clone returns an independent copy of the sequence.
func (s Sequence) Clone() Sequence {
	c := make(Sequence, len(s))
	copy(c, s)
	return c
}

// Equal reports exact element-wise equality.
func (s Sequence) Equal(t Sequence) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// String renders a short, human-readable form, eliding long sequences.
func (s Sequence) String() string {
	const maxShown = 8
	if len(s) <= maxShown {
		return fmt.Sprintf("%v", []float64(s))
	}
	return fmt.Sprintf("%v...(len %d)", []float64(s[:maxShown]), len(s))
}

// Feature is the paper's 4-tuple feature vector,
// (First(S), Last(S), Greatest(S), Smallest(S)). It is invariant under time
// warping: stretching a sequence along the time axis changes none of the
// four components.
type Feature struct {
	First, Last, Greatest, Smallest float64
}

// ExtractFeature computes the feature vector of s in O(|S|).
// It returns ErrEmpty for the empty sequence, whose features are undefined.
func ExtractFeature(s Sequence) (Feature, error) {
	if s.Empty() {
		return Feature{}, ErrEmpty
	}
	min, max := s.MinMax()
	return Feature{
		First:    s.First(),
		Last:     s.Last(),
		Greatest: max,
		Smallest: min,
	}, nil
}

// MustFeature is ExtractFeature for sequences known to be non-empty; it
// panics on an empty sequence.
func MustFeature(s Sequence) Feature {
	f, err := ExtractFeature(s)
	if err != nil {
		panic(err)
	}
	return f
}

// Vector returns the feature as a 4-element point, in the dimension order
// used by the index: first, last, greatest, smallest.
func (f Feature) Vector() [4]float64 {
	return [4]float64{f.First, f.Last, f.Greatest, f.Smallest}
}

// DistLInf is the L∞ distance between two feature vectors. It is exactly the
// paper's lower-bound distance function Dtw-lb (Definition 3).
func (f Feature) DistLInf(g Feature) float64 {
	d := math.Abs(f.First - g.First)
	if v := math.Abs(f.Last - g.Last); v > d {
		d = v
	}
	if v := math.Abs(f.Greatest - g.Greatest); v > d {
		d = v
	}
	if v := math.Abs(f.Smallest - g.Smallest); v > d {
		d = v
	}
	return d
}

// Valid reports whether the feature is internally consistent: every
// component finite (a NaN or ±Inf component makes the R-tree entry
// unreachable or its MBRs degenerate) and Smallest ≤ First,Last ≤ Greatest.
func (f Feature) Valid() bool {
	for _, v := range f.Vector() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return f.Smallest <= f.Greatest &&
		f.Smallest <= f.First && f.First <= f.Greatest &&
		f.Smallest <= f.Last && f.Last <= f.Greatest
}
