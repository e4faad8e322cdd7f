package dtw

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/seq"
)

// maxDeciderLen is the longest query a Decider indexes. Its prefix bitsets
// take (m+1)·⌈m/64⌉ words and its rank table 16m+1 int32s, 128 KiB and
// 64 KiB at this length; a longer query keeps the refiner-only path.
const maxDeciderLen = 1024

// maxReachWords caps the reach rows WithinKeep keeps in a Refiner:
// n·⌈m/64⌉ words, 256 KiB. A pooled Refiner keeps what it grew to, so
// without a cap one 10⁵-element candidate against a 1 024-element query
// would leave 12.8 MB in each pooled Refiner. A pair over the cap keeps no
// rows, and the caller values it with Refiner.DistanceWithin instead.
const maxReachWords = 1 << 15

// bucketsPerElem sizes the Decider's rank table: 16m buckets over
// [min Q, max Q]. On the range_unbanded pairs a decision took 2.75 µs with
// 4m, 2.48 with 8m, 2.40 with 16m, 2.34 with 32m and 2.26 with 64m
// (BenchmarkDecide, one CPU, medians of five); past 16m each doubling saves
// ≈ 3 % and doubles the table, already 64 KiB at 1 024 elements.
const bucketsPerElem = 16

// boundsPerElem sizes the rank table WithinBounds reads: 8m buckets over
// [min Q − t, max Q + t]. A table row is widened by at most a bucket and a
// half of value on each side, so finer buckets dismiss more and cost more
// to build (two sweeps over them a query and tolerance). On the
// range_unbanded pairs at ε 0.20, with the build in the price, 4m, 8m and
// 16m dismissed 54.5, 55.3 and 55.7 % of the non-results (the searches
// 56.0) at ≈ 240, 270 and 300 ns a pair (BenchmarkRefinerRangeShaped/
// envelope, one CPU).
const boundsPerElem = 8

// Decider answers Distance(s, Q, seq.LInf) ≤ t exactly, for one query Q and
// any candidate s and tolerance t, without computing the distance.
//
// Under the L∞ base Dtw(s, Q) ≤ t holds iff a warping path runs from cell
// (0, 0) to (n−1, m−1) through cells whose cost fl|s_i − q_j| is ≤ t: the
// matrix is a 0/1 maze, and the pass keeps, row by row, the bitset R_i of
// the columns reachable in row i, 64 cells a word. A row's mask is
// {j : fl|s_i − q_j| ≤ t}. Its seeds are the mask's columns reachable from
// the previous row, vertically or diagonally: (R_{i−1} | R_{i−1}<<1) & mask,
// plus column 0 in row 0. Reach then runs right through each run of ones
// that holds a seed: adding the seeds to the mask carries through the run
// and out past its end, so R_i = mask & (((mask + seeds) ^ mask) | seeds),
// with the carry taken across words. An empty row ends the pass with no.
//
// The mask needs no m comparisons. For fixed s_i the map q ↦ fl(s_i − q) is
// monotone, rounding being monotone, so {j : −t ≤ fl(s_i − q_j) ≤ t} is one
// contiguous range [l, h) of the ranks of Q's values, and the mask is
// prefix[h] &^ prefix[l], where prefix[k] holds the positions of Q's k
// smallest values. l and h are found from a bucket table's guess and fixed
// up with the DP's own predicate, so the mask is the DP's to the bit: no ulp
// widening, and "no" and "yes" are both exact.
//
// Acquire one per query with AcquireDecider and Release it when the query
// completes. Within keeps its reach row on its own stack and WithinKeep its
// rows in the caller's Refiner, so a Decider is safe for concurrent use.
type Decider struct {
	m, words int
	sorted   []float64 // Q's values, ascending
	order    []int32   // Q's positions in the order of sorted
	// prefix[k*words : (k+1)*words] is the bitset of the positions of Q's k
	// smallest values, k = 0 … m.
	prefix []uint64
	// table[b] is the first rank whose value falls in bucket ≥ b of the
	// len(table)−1 equal buckets spanning [sorted[0], sorted[m−1]]; scale is
	// buckets per unit. It only seeds the rank searches, which are exact
	// whatever it guesses.
	table     []int32
	lo, scale float64
	feat      seq.Feature
	// The rank table of WithinBounds at tolerance boundsT (NaN: none), over
	// the len(boundsL) equal buckets of [boundsLo, max Q + boundsT], clamped:
	// boundsL[b] ≤ l(x) and boundsH[b] ≥ h(x) for every x in bucket b, where
	// l and h are the exact rank searches of a row at boundsT.
	boundsT, boundsLo, boundsScale float64
	boundsL, boundsH               []int32
}

var deciderPool = sync.Pool{New: func() any { return &Decider{} }}

// AcquireDecider indexes q for Within, from a pool. It returns nil when q is
// empty, longer than 1 024 elements or holds a non-finite value: callers
// keep the refiner for those.
func AcquireDecider(q seq.Sequence) *Decider {
	if len(q) == 0 || len(q) > maxDeciderLen {
		return nil
	}
	for _, v := range q {
		if v-v != 0 {
			return nil
		}
	}
	d := deciderPool.Get().(*Decider)
	d.build(q)
	return d
}

// Release returns d to the pool. Nil-safe.
func (d *Decider) Release() {
	if d != nil {
		deciderPool.Put(d)
	}
}

func (d *Decider) build(q seq.Sequence) {
	m := len(q)
	d.m, d.words = m, (m+63)/64
	d.feat = seq.MustFeature(q)
	d.order = slices.Grow(d.order[:0], m)[:m]
	for j := range d.order {
		d.order[j] = int32(j)
	}
	slices.SortFunc(d.order, func(a, b int32) int { return cmp.Compare(q[a], q[b]) })
	d.sorted = slices.Grow(d.sorted[:0], m)[:m]
	for k, j := range d.order {
		d.sorted[k] = q[j]
	}

	w := d.words
	d.prefix = slices.Grow(d.prefix[:0], (m+1)*w)[:(m+1)*w]
	clear(d.prefix[:w])
	for k, j := range d.order {
		next := d.prefix[(k+1)*w : (k+2)*w]
		copy(next, d.prefix[k*w:(k+1)*w])
		next[j/64] |= 1 << (j % 64)
	}

	buckets := bucketsPerElem * m
	d.lo, d.scale = d.sorted[0], 0
	if span := d.sorted[m-1] - d.lo; span > 0 && span < Inf {
		d.scale = float64(buckets) / span
	}
	d.table = slices.Grow(d.table[:0], buckets+1)[:buckets+1]
	r := 0
	for b := range d.table {
		for r < m && d.bucket(d.sorted[r]) < b {
			r++
		}
		d.table[b] = int32(r)
	}
	d.boundsT = math.NaN()
}

// buildBounds fills the rank table of WithinBounds for tolerance t, finite
// and ≥ 0; it leaves none (boundsT NaN) when [min Q − t, max Q + t] has no
// finite positive width. boundsL[b] is the exact l of a point y in a bucket
// below b (the midpoint of bucket b − 1), so below every x in bucket b;
// boundsH[b] is the exact h of a point z in a bucket above b (the midpoint
// of b + 1). Both searches are non-decreasing in the value, so
// boundsL[b] ≤ l(x) and boundsH[b] ≥ h(x): a table row holds the exact row.
// The end buckets take every value beyond them, so boundsL[0] is 0 and
// boundsH[last] is m. Where rounding puts the point in bucket b itself, the
// entry copies its neighbour's, which holds too. The points rise with the
// bucket, so one rank pointer sweeps each array.
func (d *Decider) buildBounds(t, under float64) {
	m := d.m
	d.boundsT = math.NaN()
	lo := d.sorted[0] - t
	span := d.sorted[m-1] + t - lo
	if !(span > 0 && span < Inf) {
		return
	}
	n := boundsPerElem * m
	d.boundsLo, d.boundsScale = lo, float64(n)/span
	d.boundsL = slices.Grow(d.boundsL[:0], n)[:n]
	d.boundsH = slices.Grow(d.boundsH[:0], n)[:n]
	// (y − lo)·scale < b puts y in a bucket below b, and ≥ b + 1 puts z in
	// one above b, whatever boundsBucket's clamps do.
	v, width, scale := d.sorted, span/float64(n), d.boundsScale
	d.boundsL[0] = 0
	for b, r := 1, 0; b < n; b++ {
		y := lo + (float64(b)-0.5)*width
		if !((y-lo)*scale < float64(b)) {
			d.boundsL[b] = d.boundsL[b-1]
			continue
		}
		for r < m && !(y-v[r] <= t) {
			r++
		}
		d.boundsL[b] = int32(r)
	}
	d.boundsH[n-1] = int32(m)
	for b, r := n-2, m; b >= 0; b-- {
		z := lo + (float64(b)+1.5)*width
		if !((z-lo)*scale >= float64(b+1)) {
			d.boundsH[b] = d.boundsH[b+1]
			continue
		}
		for r > 0 && z-v[r-1] <= under {
			r--
		}
		d.boundsH[b] = int32(r)
	}
	d.boundsT = t
}

// boundsBucket maps x to its bucket of the WithinBounds table, clamped to
// [0, len(boundsL)−1]; monotone in x.
func (d *Decider) boundsBucket(x float64) int {
	f := (x - d.boundsLo) * d.boundsScale
	switch {
	case !(f > 0):
		return 0
	case f >= float64(len(d.boundsL)-1):
		return len(d.boundsL) - 1
	}
	return int(f)
}

// bucket maps x to its bucket, clamped to [0, len(table)−1]; monotone in x.
func (d *Decider) bucket(x float64) int {
	f := (x - d.lo) * d.scale
	switch {
	case !(f > 0):
		return 0
	case f >= float64(len(d.table)-1):
		return len(d.table) - 1
	}
	return int(f)
}

// LBKim is LBKim(s, Q) from the query's stored feature: Dtw-lb, computed
// with math.Abs, so never −0. Requires a non-empty s.
func (d *Decider) LBKim(s seq.Sequence) float64 {
	return seq.MustFeature(s).DistLInf(d.feat)
}

// Within reports whether Distance(s, Q, seq.LInf) ≤ t, exactly as the
// refiner's verdict at cutoff t (a NaN or negative t says no, −0 is a zero
// tolerance, a NaN element of s empties its row).
//
// Row i's mask is the ranks [l, h) with −t ≤ fl(s_i − q) ≤ t, the q whose
// cost is ≤ t: l is the first rank with fl(s_i − q) ≤ t and h the first
// with fl(s_i − q) < −t, which for a double is ≤ under, the next double
// below −t. (fl(s_i − q) is non-increasing along the ranks because
// subtraction rounds monotonically, so both searches see false and then
// true. At t = +Inf no cost is below −t: under is NaN, which compares false.
// A NaN s_i makes both searches return m: an empty row.)
func (d *Decider) Within(s seq.Sequence, t float64) bool {
	var row [maxDeciderLen / 64]uint64
	return d.reach(s, s, t, row[:d.words], 0, false)
}

// WithinBounds is Within's pass over rows given as value ranges: row i
// admits the ranks [l, h) with l the first rank whose cost from lo[i] is
// ≤ t and h the first whose fl(hi[i] − q) < −t — Within's row of any value
// in [lo[i], hi[i]], widened to the union of all of them. Both searches are
// non-decreasing in the value (fl(x − q) is monotone in x), so row i admits
// every column Within's row of any s_r ∈ [lo[i], hi[i]] admits, and
// lo = hi = s is Within(s, t).
//
// Its "no" is therefore Within's "no" for every s whose every cheap warping
// path projects onto a path through these rows: a map g from s's positions
// to rows with s_r ∈ [lo[g(r)], hi[g(r)]], g(0) = 0, g(n−1) = len(lo)−1,
// that steps by 0 or 1 — or by more, through rows whose range also holds
// the element stepped to. The stored PAA segments are such rows (DESIGN.md
// §8); a "yes" says nothing. lo and hi have the same length.
//
// A finite t reads the rows from a rank table built on the first call at
// that t (buildBounds) instead of searching: each row is widened to whole
// buckets, at most a bucket and a half of value on each side, which keeps
// the "no" sound and costs a few dismissals. The table makes WithinBounds
// unsafe to call concurrently with any other method of d.
func (d *Decider) WithinBounds(lo, hi []float64, t float64) bool {
	var row [maxDeciderLen / 64]uint64
	table := t >= 0 && t < Inf
	if table && t != d.boundsT {
		d.buildBounds(t, math.Nextafter(-t, math.Inf(-1)))
		table = t == d.boundsT
	}
	return d.reach(lo, hi[:len(lo)], t, row[:d.words], 0, table)
}

// WithinKeep is Within that also keeps every row's reach bitset in r, for
// r.CorridorDistance to window the DP of an accepted pair with. The rows
// take len(s)·⌈m/64⌉ words; over maxReachWords it keeps none and is Within.
func (d *Decider) WithinKeep(s seq.Sequence, t float64, r *Refiner) bool {
	r.kept = 0
	need := len(s) * d.words
	if need > maxReachWords {
		return d.Within(s, t)
	}
	if cap(r.reach) < need {
		r.reach = make([]uint64, min(max(need, 2*cap(r.reach)), maxReachWords))
	}
	if !d.reach(s, s, t, r.reach[:need], d.words, false) {
		return false
	}
	r.kept = len(s)
	return true
}

// reach runs the forward pass at t over rows whose values lie in
// [lo[i], hi[i]] — the element twice for Within, a segment's bounds for
// WithinBounds — writing row i's bitset to rows[i·stride:][:words]: stride 0
// reuses one row, stride words keeps all. len(hi) ≥ len(lo). With table
// set, row i's ranks come from the WithinBounds table built for t, not the
// exact searches.
func (d *Decider) reach(lo, hi []float64, t float64, rows []uint64, stride int, table bool) bool {
	if !(t >= 0) || len(lo) == 0 {
		return false
	}
	under := math.Nextafter(-t, math.Inf(-1))
	if t == Inf {
		under = math.NaN()
	}
	w := d.words
	prev := rows[:w]
	clear(prev)       // row −1 reaches nothing
	seed := uint64(1) // column 0 starts row 0
	for i, x := range lo {
		var l, h int
		if table {
			l, h = int(d.boundsL[d.boundsBucket(x)]), int(d.boundsH[d.boundsBucket(hi[i])])
		} else {
			l, h = d.firstAtMost(x, t), d.firstAtMost(hi[i], under)
		}
		if l >= h {
			return false
		}
		row := rows[:w]
		below, upto, up := d.prefix[l*w:][:len(row)], d.prefix[h*w:][:len(row)], prev[:len(row)]
		var carry, any uint64
		top := seed // the bit R_{i−1}<<1 carries into this word
		for k := range row {
			mask := upto[k] &^ below[k]
			p := up[k]
			seeds := (p | p<<1 | top) & mask
			top = p >> 63
			var sum uint64
			sum, carry = bits.Add64(mask, seeds, carry)
			r := mask & ((sum ^ mask) | seeds)
			row[k] = r
			any |= r
		}
		if any == 0 {
			return false
		}
		seed = 0
		prev, rows = row, rows[stride:]
	}
	last := d.m - 1
	return prev[last/64]>>(last%64)&1 != 0
}

// firstAtMost returns the first rank r with fl(s_i − sorted[r]) ≤ b, or m if
// there is none. It gallops from the bucket table's guess for s_i − b and
// then bisects, so a good guess costs two evaluations and a bad one about
// twice the logarithm of its error.
func (d *Decider) firstAtMost(si, b float64) int {
	v := d.sorted
	m := len(v)
	g := int(d.table[d.bucket(si-b)])
	// Invariant: lo = −1 or rank lo fails; hi = m or rank hi holds.
	lo, hi := g-1, g
	if g < m && !(si-v[g] <= b) {
		lo = g
		for step := 1; ; step <<= 1 {
			if hi = lo + step; hi >= m {
				hi = m
				break
			}
			if si-v[hi] <= b {
				break
			}
			lo = hi
		}
	} else {
		for step := 1; lo >= 0 && si-v[lo] <= b; step <<= 1 {
			hi, lo = lo, lo-step
		}
		lo = max(lo, -1)
	}
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if si-v[mid] <= b {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}
