package dtw

import (
	"math"
	"sync"

	"repro/internal/seq"
)

// Verdict classifies the outcome of Refiner.DistanceWithin.
type Verdict int

const (
	// VerdictPruned means the windowed pass proved Dtw(s,q) > epsilon
	// without completing an exact DP: the set of cells whose DP value stays
	// within epsilon never reaches the final cell. The pass stops at the
	// first row with no such cell, so hopeless candidates die at a fraction
	// of the dense DP's cost.
	VerdictPruned Verdict = iota
	// VerdictWithin means Dtw(s,q) ≤ epsilon; the returned distance is exact
	// (bit-identical to DistanceWithin).
	VerdictWithin
	// VerdictAbandoned means a dense early-abandoning DP ran to rejection.
	// The windowed pass never reports this — its rejections are corridor
	// prunes — so it only arises on the generic fallback for bases without
	// a corridor soundness argument.
	VerdictAbandoned
)

// Refiner is the filter-and-refine DTW evaluator behind the cascade's exact
// step, fused into one early-abandoning pass over the DP matrix. A
// cell is alive when its exact DP value is ≤ epsilon; values never decrease
// along a warping path (max-combine for seq.LInf, non-negative additions
// for seq.L1/seq.L2Sq), so dead cells can never lie on a qualifying path.
// Each row therefore computes one contiguous window — from the previous
// row's first alive column to one past its last, plus a horizontal fill
// while cells stay alive — and a row with no alive cell ends the pass.
//
// Cells outside the window stand in as +Inf sentinels; dead cells inside it
// keep whatever the recurrence computed. Both are sound: by induction every
// stored value is ≥ the dense DP's, and a cell whose dense value is ≤
// epsilon has an alive minimum predecessor (a dead one would push it over
// epsilon), which the window holds exactly — so every alive cell, and the
// final distance of a surviving candidate, is bit-identical to the dense
// DP's.
//
// Cells are held and compared as IEEE-754 bit patterns: every DP value is a
// non-negative non-NaN double, and on those the unsigned-integer order of
// the bits is the float order, so min and max compile to conditional moves
// instead of data-dependent float branches. A NaN (sign masked off) orders
// above +Inf, i.e. is dead.
//
// A Sakoe–Chiba band is a property of the same pass, not a second DP: a
// banded call cuts each row's window to the row's in-band columns (rowBand).
// Out-of-band cells are +Inf in the banded recurrence, which is what the
// sentinels and the cells the window skips already stand for, so the
// argument above holds with the banded matrix in place of the dense one
// (DESIGN.md §8, "Window ∩ band").
//
// The two tiers of the old split design remain visible in the verdict: a
// candidate whose alive region dies before the final cell is "corridor
// pruned" (no DP completed), while a survivor's verdict carries the exact
// distance with no second pass over the matrix.
//
// A Refiner owns its two DP rows; acquire one per query with AcquireRefiner,
// use it for every candidate, and Release it when the query completes. A
// Refiner is not safe for concurrent use.
type Refiner struct {
	// DP rows of bit patterns, column j at slot j+1. Slot 0 is +Inf for
	// good (the column left of column 0); everything else is scratch that
	// a pass reads only between the sentinels it wrote itself.
	prev, cur []uint64
}

const (
	signBit = 1 << 63
	infBits = 0x7FF0000000000000
)

var refinerPool = sync.Pool{New: func() any { return &Refiner{} }}

// AcquireRefiner returns a pooled Refiner.
func AcquireRefiner() *Refiner { return refinerPool.Get().(*Refiner) }

// Release returns the Refiner (and its rows) to the pool.
func (r *Refiner) Release() { refinerPool.Put(r) }

// rows returns the two DP rows, grown to hold m columns plus the slot
// before column 0 and the sentinel slot after column m-1.
func (r *Refiner) rows(m int) (prev, cur []uint64) {
	if len(r.prev) < m+2 {
		n := max(m+2, 2*len(r.prev))
		r.prev, r.cur = make([]uint64, n), make([]uint64, n)
		r.prev[0], r.cur[0] = infBits, infBits
	}
	return r.prev, r.cur
}

// DistanceWithin is DistanceWithin with the corridor fused in: it returns
// the same (distance, within) outcome — VerdictWithin carries the
// bit-identical exact distance, VerdictPruned/VerdictAbandoned correspond
// to (+Inf, false) — plus which mechanism decided, so callers can account
// corridor dismissals separately from completed DP evaluations.
func (r *Refiner) DistanceWithin(s, q seq.Sequence, base seq.Base, epsilon float64) (float64, Verdict) {
	return r.BandDistanceWithin(s, q, base, -1, epsilon)
}

// BandDistanceWithin is the package-level BandDistanceWithin through the
// same windowed pass: each row's window is intersected with the row's
// Sakoe–Chiba column range, so a banded query refines at the branch-free
// cell cost instead of through the reference loop. VerdictWithin carries
// the banded distance bit-identical to BandDistance; epsilon = +Inf turns
// the call into BandDistance itself. band < 0, a single row or a single
// column (no band can constrain those) give the unconstrained
// DistanceWithin, exactly as the reference routes them. (Bit-identical for
// pairs whose differences s_i − q_j are finite; DESIGN.md §10 states the
// overflow corner.)
func (r *Refiner) BandDistanceWithin(s, q seq.Sequence, base seq.Base, band int, epsilon float64) (float64, Verdict) {
	if !(epsilon >= 0) {
		return Inf, VerdictPruned
	}
	switch {
	case s.Empty() && q.Empty():
		return 0, VerdictWithin
	case s.Empty() || q.Empty():
		return Inf, VerdictPruned
	}
	// The O(1) endpoint check is the corridor's first/last-cell test; the
	// corner cells lie on every path, banded or not.
	if base.Elem(s[0], q[0]) > epsilon || base.Elem(s[len(s)-1], q[len(q)-1]) > epsilon {
		return Inf, VerdictPruned
	}
	var rb rowBand
	if n, m := len(s), len(q); band < 0 || n == 1 || m == 1 {
		band = -1
		if m > n {
			s, q = q, s // rows over the longer sequence: the shorter DP rows
		}
		rb.half = n + m // every row's range is the whole row
	} else {
		// No swap here: for unequal lengths the band is not symmetric under
		// transposition. Half-width and slope are BandDistance's, including
		// the steep-slope floor that keeps consecutive rows connected.
		rb.half = band
		if n != m {
			rb.slope = float64(m-1) / float64(n-1)
			rb.half = max(band, int(math.Ceil(rb.slope))/2)
		}
	}
	var (
		d  float64
		ok bool
	)
	eps := math.Float64bits(epsilon) &^ signBit // -0 is a valid epsilon
	switch base {
	case seq.LInf:
		d, ok = r.windowMax(s, q, eps, rb)
	case seq.L1:
		d, ok = r.windowAdd(s, q, false, eps, rb)
	case seq.L2Sq:
		d, ok = r.windowAdd(s, q, true, eps, rb)
	default:
		// No corridor soundness argument on file for future bases: run the
		// plain early-abandoning DP.
		if d, ok := BandDistanceWithin(s, q, base, band, epsilon); ok {
			return d, VerdictWithin
		}
		return Inf, VerdictAbandoned
	}
	if !ok {
		return Inf, VerdictPruned
	}
	return d, VerdictWithin
}

// rowBand is the Sakoe–Chiba column range of each row of a windowed pass:
// columns center−half … center+half clipped to the row, where center is the
// row number itself (slope 0: equal lengths, and the unbanded pass, whose
// half exceeds every row) or round(row·slope) along the stretched diagonal
// of an unequal-length pair — bandRange's arithmetic, so the cells in range
// are the reference's.
type rowBand struct {
	half  int
	slope float64
}

// cols returns the first and last in-band column of row i of m columns.
func (rb rowBand) cols(i, m int) (lo, hi int) {
	if rb.slope != 0 {
		i = int(math.Round(float64(i) * rb.slope))
	}
	return max(i-rb.half, 0), min(i+rb.half, m-1)
}

// windowMax runs the single-window DP under the L∞ (max) combine over the
// cells rb admits. Requires len(s), len(q) ≥ 1; eps is epsilon's bit
// pattern. Reports (exact distance, true) when the distance over in-band
// paths is ≤ epsilon.
func (r *Refiner) windowMax(s, q []float64, eps uint64, rb rowBand) (float64, bool) {
	n, m := len(s), len(q)
	prev, cur := r.rows(m)

	// Row 0 is a single combine chain, so its values never decrease and the
	// alive set is a prefix.
	s0 := s[0]
	var c uint64
	hi := -1 // last alive column of the previous row; lo is its first
	_, bHi := rb.cols(0, m)
	for j := 0; j <= bHi; j++ {
		c = max(c, math.Float64bits(s0-q[j])&^signBit)
		if c > eps {
			break
		}
		prev[j+1] = c
		hi = j
	}
	if hi < 0 {
		return Inf, false
	}
	prev[hi+2] = infBits
	lo := 0

	for i := 1; i < n; i++ {
		si := s[i]
		bLo, bHi := rb.cols(i, m)
		// Columns lo..hi+1 have a vertical or diagonal predecessor inside
		// the previous row's sentinels; the band keeps bLo..bHi of them.
		end := min(hi+1, bHi)

		// Seek the first alive cell. Everything left of it is dead or out
		// of band, so its horizontal predecessor is +Inf and drops out of
		// the minimum.
		j := max(lo, bLo)
		diag := prev[j]
		for ; j <= end; j++ {
			up := prev[j+1]
			c = max(min(up, diag), math.Float64bits(si-q[j])&^signBit)
			diag = up
			if c <= eps {
				break
			}
		}
		if j > end {
			return Inf, false // whole row dead: no completion possible
		}
		cur[j], cur[j+1] = infBits, c
		lo = j
		last := j

		// Seeded columns: the full 3-way minimum. Dead cells keep their
		// computed value (see the type comment); only the last alive
		// column is remembered.
		for j++; j <= end; j++ {
			up := prev[j+1]
			c = max(min(up, diag, c), math.Float64bits(si-q[j])&^signBit)
			diag = up
			cur[j+1] = c
			if c <= eps {
				last = j
			}
		}

		// Beyond the seeds only a horizontal fill extends the row, for as
		// long as it stays alive and in band.
		if last == end {
			for ; j <= bHi; j++ {
				c = max(c, math.Float64bits(si-q[j])&^signBit)
				if c > eps {
					break
				}
				cur[j+1] = c
				last = j
			}
		}
		cur[last+2] = infBits
		hi = last
		prev, cur = cur, prev
	}
	if hi != m-1 {
		return Inf, false
	}
	return math.Float64frombits(prev[m]), true
}

// windowAdd is windowMax under an additive combine; squared selects the
// seq.L2Sq element cost. Cells compare as bits and add as floats.
// Cumulative sums make the alive predicate stronger than any per-element
// test, so the corridor here also prunes candidates a dense DP would only
// reject after a full evaluation.
func (r *Refiner) windowAdd(s, q []float64, squared bool, eps uint64, rb rowBand) (float64, bool) {
	n, m := len(s), len(q)
	prev, cur := r.rows(m)
	elem := func(x, y float64) float64 {
		d := math.Abs(x - y)
		if squared {
			return d * d
		}
		return d
	}

	s0 := s[0]
	var c uint64
	hi := -1
	_, bHi := rb.cols(0, m)
	for j := 0; j <= bHi; j++ {
		c = math.Float64bits(elem(s0, q[j]) + math.Float64frombits(c))
		if c > eps {
			break
		}
		prev[j+1] = c
		hi = j
	}
	if hi < 0 {
		return Inf, false
	}
	prev[hi+2] = infBits
	lo := 0

	for i := 1; i < n; i++ {
		si := s[i]
		bLo, bHi := rb.cols(i, m)
		end := min(hi+1, bHi)

		j := max(lo, bLo)
		diag := prev[j]
		for ; j <= end; j++ {
			up := prev[j+1]
			c = math.Float64bits(elem(si, q[j]) + math.Float64frombits(min(up, diag)))
			diag = up
			if c <= eps {
				break
			}
		}
		if j > end {
			return Inf, false
		}
		cur[j], cur[j+1] = infBits, c
		lo = j
		last := j

		for j++; j <= end; j++ {
			up := prev[j+1]
			c = math.Float64bits(elem(si, q[j]) + math.Float64frombits(min(up, diag, c)))
			diag = up
			cur[j+1] = c
			if c <= eps {
				last = j
			}
		}

		if last == end {
			for ; j <= bHi; j++ {
				c = math.Float64bits(elem(si, q[j]) + math.Float64frombits(c))
				if c > eps {
					break
				}
				cur[j+1] = c
				last = j
			}
		}
		cur[last+2] = infBits
		hi = last
		prev, cur = cur, prev
	}
	if hi != m-1 {
		return Inf, false
	}
	return math.Float64frombits(prev[m]), true
}
