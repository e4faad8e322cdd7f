package dtw

import (
	"math"
	"math/bits"

	"repro/internal/seq"
)

// CorridorDistance returns Distance(s, q, seq.LInf), bit for bit, for a pair
// the last d.WithinKeep(s, t, r) accepted, q being d's query. It runs the DP
// only inside per-row windows that provably hold an optimal path, derived
// from the reach rows that call kept. ok is false when it kept none: the
// rows were over the cap, or the decision said no.
//
// The windows. R_i is the set of row i's cells a path of cells costing ≤ t
// reaches from (0, 0). A cell lies on such a path to (n−1, m−1) only if it
// is in R_i and the rest of the path runs right through its run of R_i and
// then down or diagonally into such a cell of row i+1. So, bottom up, each
// row gets the hull [lo_i, hi_i] of those cells:
//
//	row n−1: hi = m−1, lo = the bottom of the run of R_{n−1} holding m−1
//	row i:   hi_i = the last bit of R_i at or below hi_{i+1}
//	         lo_i = the bottom of the run of R_i holding its first bit at
//	                or after lo_{i+1} − 1
//
// An optimal path costs Dtw ≤ t, so every cell on it is such a cell, inside
// its row's window. The DP with +Inf outside the windows stores values ≥
// the dense DP's and computes an optimal path's cells from predecessors
// inside the windows, so its last cell is ≤ Dtw and ≥ Dtw; under L∞ the DP
// only selects among the costs, so that is Dtw's bits. Any wider windows
// keep the argument, which is why the kernel may run two rows over the union
// of their windows. Both ends move right going down — hi_i ≤ hi_{i+1} by
// construction, and lo_i ≤ lo_{i+1} because the bottom of a run of R_{i+1}
// is reached from R_i at its own column or the one left of it — which is
// what lets one DP row serve every pair (see corridorMax).
func (r *Refiner) CorridorDistance(s, q seq.Sequence) (float64, bool) {
	n, m := len(s), len(q)
	w := (m + 63) / 64
	if n == 0 || r.kept != n || n*w > len(r.reach) {
		return Inf, false
	}
	r.windows(n, m, w)
	return r.corridorMax(s, q), true
}

// windows fills r.lo and r.hi from the n kept reach rows of m columns.
func (r *Refiner) windows(n, m, w int) {
	if cap(r.lo) < n {
		r.lo, r.hi = make([]int32, 2*n), make([]int32, 2*n)
	}
	lo, hi := r.lo[:n], r.hi[:n]
	rows := r.reach[:n*w]
	h := m - 1
	l := runStart(rows[(n-1)*w:][:w], h)
	lo[n-1], hi[n-1] = int32(l), int32(h)
	for i := n - 2; i >= 0; i-- {
		row := rows[i*w:][:w]
		h = lastAtMost(row, h)
		l = runStart(row, firstAtLeast(row, max(l-1, 0)))
		lo[i], hi[i] = int32(l), int32(h)
	}
}

// lastAtMost returns the highest set bit of row at or below j; one exists.
func lastAtMost(row []uint64, j int) int {
	k := j / 64
	x := row[k] & (^uint64(0) >> (63 - j%64))
	for x == 0 {
		k--
		x = row[k]
	}
	return k*64 + 63 - bits.LeadingZeros64(x)
}

// firstAtLeast returns the lowest set bit of row at or above j; one exists.
func firstAtLeast(row []uint64, j int) int {
	k := j / 64
	x := row[k] &^ (1<<(j%64) - 1)
	for x == 0 {
		k++
		x = row[k]
	}
	return k*64 + bits.TrailingZeros64(x)
}

// runStart returns the bottom of the run of set bits of row holding bit j:
// one above the highest clear bit below j, or 0.
func runStart(row []uint64, j int) int {
	k := j / 64
	x := ^row[k] & (1<<(j%64) - 1)
	for x == 0 {
		if k == 0 {
			return 0
		}
		k--
		x = ^row[k]
	}
	return k*64 + 64 - bits.LeadingZeros64(x)
}

// corridorMax runs the L∞ DP over the windows in one row of bit patterns,
// column j at slot j+1, two rows of s at a time. The row starts as row −1:
// +Inf but for slot 0, a virtual predecessor of cost 0 that makes cell
// (0, 0) its own cost. Every pair of rows covers [lo_i, hi_{i+1}], the union
// of their windows, reads the row above from slots lo_i … hi_{i+1}+1 and
// leaves its lower row in slots lo_i+1 … hi_{i+1}+1 with +Inf in slot lo_i.
// The ends only move right, so what a pair reads is the previous pair's
// output, that pair's +Inf in slot lo, or a slot right of every earlier
// window still holding the initial +Inf: never a value left over from rows
// further up, which could undercut the dense DP.
func (r *Refiner) corridorMax(s, q []float64) float64 {
	n, m := len(s), len(q)
	row, _ := r.rows(m)
	row = row[:m+1]
	for j := range row {
		row[j] = infBits
	}
	row[0] = 0
	lo, hi := r.lo[:n], r.hi[:n]
	i := 0
	for ; i+1 < n; i += 2 {
		pairMax(row, q, s[i], s[i+1], int(lo[i]), int(hi[i+1]))
	}
	if i < n {
		rowMax(row, q, s[i], int(lo[i]), int(hi[i]))
	}
	row[0] = infBits // the refiner's sentinel again
	return math.Float64frombits(row[m])
}

// pairMax advances row by s0's row and s1's over columns lo … hi, skewed by
// one column: step j computes cell (s0, j) from the row above and cell
// (s1, j−1) from the two s0 cells before it, so the two max-min chains are
// independent and overlap, and everything the loop carries stays in a
// register.
// Cell (s1, j−1) goes to slot j, which the loop has read for the last time.
func pairMax(row []uint64, q []float64, s0, s1 float64, lo, hi int) {
	row, q = row[lo:hi+2], q[lo:hi+1] // row[k] is column lo+k−1, q[k] column lo+k
	up := row[1]
	a1 := max(min(up, row[0]), math.Float64bits(s0-q[0])&^signBit)
	row[0] = infBits // cell (s1, lo−1): outside the window
	diag, a2, b := up, uint64(infBits), uint64(infBits)
	qp := q[0]
	qs := q[1:]
	ups, outs := row[2:][:len(qs)], row[1:][:len(qs)]
	for k, qj := range qs {
		up := ups[k]
		a := max(min(up, diag, a1), math.Float64bits(s0-qj)&^signBit)
		b = max(min(a1, a2, b), math.Float64bits(s1-qp)&^signBit)
		outs[k] = b
		diag, a2, a1, qp = up, a1, a, qj
	}
	row[len(row)-1] = max(min(a1, a2, b), math.Float64bits(s1-qp)&^signBit)
}

// rowMax advances row by the single row of si over columns lo … hi: the
// last row of an odd-length candidate.
func rowMax(row []uint64, q []float64, si float64, lo, hi int) {
	row, q = row[lo:hi+2], q[lo:hi+1]
	diag, a := row[0], uint64(infBits)
	ups := row[1:][:len(q)]
	for k, qj := range q {
		up := ups[k]
		a = max(min(up, diag, a), math.Float64bits(si-qj)&^signBit)
		ups[k] = a
		diag = up
	}
}
