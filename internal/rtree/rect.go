// Package rtree implements a disk-resident, dimension-generic R-tree after
// Guttman (the index structure the paper employs, §5.1), stored on the paged
// storage layer so that index accesses are charged through the same buffer
// pool cost model as data accesses. Supported operations: insert with
// Guttman's quadratic node split, window (range) search, delete with
// tree condensation, STR bulk loading (§4.3.1 points at bulk loading for
// initial construction), and best-first k-nearest-neighbor search under L∞
// or L2 point-to-rectangle distance.
package rtree

import (
	"fmt"
	"math"
)

// Rect is a d-dimensional axis-aligned rectangle. Points are rectangles
// with Lo == Hi. Lo and Hi always have equal length.
type Rect struct {
	Lo, Hi []float64
}

// NewPoint returns the degenerate rectangle covering exactly p.
func NewPoint(p []float64) Rect {
	lo := make([]float64, len(p))
	hi := make([]float64, len(p))
	copy(lo, p)
	copy(hi, p)
	return Rect{Lo: lo, Hi: hi}
}

// NewRect validates and returns a rectangle.
func NewRect(lo, hi []float64) (Rect, error) {
	if len(lo) != len(hi) {
		return Rect{}, fmt.Errorf("rtree: rect dims differ: %d vs %d", len(lo), len(hi))
	}
	for i := range lo {
		if lo[i] > hi[i] {
			return Rect{}, fmt.Errorf("rtree: rect dim %d inverted: [%g, %g]", i, lo[i], hi[i])
		}
	}
	return Rect{Lo: lo, Hi: hi}, nil
}

// Dim returns the dimensionality.
func (r Rect) Dim() int { return len(r.Lo) }

// Clone returns a deep copy.
func (r Rect) Clone() Rect {
	return Rect{Lo: append([]float64(nil), r.Lo...), Hi: append([]float64(nil), r.Hi...)}
}

// Area returns the d-dimensional volume.
func (r Rect) Area() float64 {
	a := 1.0
	for i := range r.Lo {
		a *= r.Hi[i] - r.Lo[i]
	}
	return a
}

// Union returns the minimal rectangle covering r and s.
func (r Rect) Union(s Rect) Rect {
	out := r.Clone()
	for i := range out.Lo {
		if s.Lo[i] < out.Lo[i] {
			out.Lo[i] = s.Lo[i]
		}
		if s.Hi[i] > out.Hi[i] {
			out.Hi[i] = s.Hi[i]
		}
	}
	return out
}

// Enlargement returns the area increase needed for r to cover s.
func (r Rect) Enlargement(s Rect) float64 {
	enlarged := 1.0
	for i := range r.Lo {
		lo, hi := r.Lo[i], r.Hi[i]
		if s.Lo[i] < lo {
			lo = s.Lo[i]
		}
		if s.Hi[i] > hi {
			hi = s.Hi[i]
		}
		enlarged *= hi - lo
	}
	return enlarged - r.Area()
}

// Intersects reports whether r and s share any point (closed rectangles).
func (r Rect) Intersects(s Rect) bool {
	for i := range r.Lo {
		if r.Lo[i] > s.Hi[i] || s.Lo[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// Contains reports whether s lies entirely inside r.
func (r Rect) Contains(s Rect) bool {
	for i := range r.Lo {
		if s.Lo[i] < r.Lo[i] || s.Hi[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// Equal reports exact equality.
func (r Rect) Equal(s Rect) bool {
	if len(r.Lo) != len(s.Lo) {
		return false
	}
	for i := range r.Lo {
		if r.Lo[i] != s.Lo[i] || r.Hi[i] != s.Hi[i] {
			return false
		}
	}
	return true
}

// Center returns the rectangle's center point.
func (r Rect) Center() []float64 {
	c := make([]float64, len(r.Lo))
	for i := range c {
		c[i] = (r.Lo[i] + r.Hi[i]) / 2
	}
	return c
}

// Norm selects the point-to-rectangle distance used by k-NN search.
type Norm int

const (
	// NormLInf is the Chebyshev distance; it matches the paper's Dtw-lb
	// metric, so best-first search with it yields exact k-NN under the
	// lower-bound distance.
	NormLInf Norm = iota
	// NormL2 is the Euclidean distance (used by the FastMap pipeline).
	NormL2
)

// MinDist returns the minimal distance from point p to rectangle r under
// the norm: 0 when p lies inside r.
func (r Rect) MinDist(p []float64, norm Norm) float64 {
	switch norm {
	case NormLInf:
		max := 0.0
		for i := range p {
			d := axisDist(p[i], r.Lo[i], r.Hi[i])
			if d > max {
				max = d
			}
		}
		return max
	default:
		acc := 0.0
		for i := range p {
			d := axisDist(p[i], r.Lo[i], r.Hi[i])
			acc += d * d
		}
		return math.Sqrt(acc)
	}
}

func axisDist(v, lo, hi float64) float64 {
	switch {
	case v < lo:
		return lo - v
	case v > hi:
		return v - hi
	default:
		return 0
	}
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("Rect(%v, %v)", r.Lo, r.Hi)
}
