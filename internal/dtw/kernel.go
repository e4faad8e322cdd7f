package dtw

import (
	"math"
	"sync"

	"repro/internal/seq"
)

// PooledRowCap is the DP row capacity the buffer pool hands out by default.
// Sequences up to this length (after the shorter-side swap) run the DP with
// zero per-call allocations in steady state; longer sequences grow the
// pooled buffers on first use and are allocation-free afterwards.
const PooledRowCap = 4096

// rowPair is one reusable pair of DP rows. Pooling the pair (rather than
// two single rows) halves the pool traffic per call.
type rowPair struct {
	prev, cur []float64
}

var rowPool = sync.Pool{
	New: func() any {
		return &rowPair{
			prev: make([]float64, PooledRowCap),
			cur:  make([]float64, PooledRowCap),
		}
	},
}

// acquireRows returns a pooled row pair sized to m columns.
func acquireRows(m int) *rowPair {
	rp := rowPool.Get().(*rowPair)
	if cap(rp.prev) < m {
		rp.prev = make([]float64, m)
		rp.cur = make([]float64, m)
	}
	rp.prev = rp.prev[:m]
	rp.cur = rp.cur[:m]
	return rp
}

func releaseRows(rp *rowPair) { rowPool.Put(rp) }

// The three kernels below are concrete per-base specializations of the DP
// inner loop: the generic loop pays a Combine branch (and, for LInf, a
// math.Max call) per cell, which dominates once the rows come from the
// pool. Each kernel mirrors the generic recurrence exactly — same element
// expression, same predecessor comparison order — so results are
// bit-identical to the generic form for all non-NaN inputs.
//
// All kernels require the caller to have already handled empty inputs and
// swapped so len(q) <= len(s).

// distKernelLInf is Distance for seq.LInf: path cost is the maximum
// element-pair difference (paper Definition 2).
func distKernelLInf(s, q []float64) float64 {
	rp := acquireRows(len(q))
	prev, cur := rp.prev, rp.cur
	v := math.Abs(s[0] - q[0])
	prev[0] = v
	for j := 1; j < len(q); j++ {
		e := math.Abs(s[0] - q[j])
		if prev[j-1] > e {
			e = prev[j-1]
		}
		prev[j] = e
	}
	for i := 1; i < len(s); i++ {
		si := s[i]
		e := math.Abs(si - q[0])
		if prev[0] > e {
			e = prev[0]
		}
		cur[0] = e
		for j := 1; j < len(q); j++ {
			e := math.Abs(si - q[j])
			best := prev[j]
			if cur[j-1] < best {
				best = cur[j-1]
			}
			if prev[j-1] < best {
				best = prev[j-1]
			}
			if best > e {
				e = best
			}
			cur[j] = e
		}
		prev, cur = cur, prev
	}
	d := prev[len(q)-1]
	releaseRows(rp)
	return d
}

// distKernelAdd is Distance for the additive bases; squared selects the
// seq.L2Sq element cost (the flag is hoisted out of the hot cell math —
// a single predictable branch per cell, no interface-style dispatch).
func distKernelAdd(s, q []float64, squared bool) float64 {
	rp := acquireRows(len(q))
	prev, cur := rp.prev, rp.cur
	elem := func(x, y float64) float64 {
		d := math.Abs(x - y)
		if squared {
			return d * d
		}
		return d
	}
	prev[0] = elem(s[0], q[0])
	for j := 1; j < len(q); j++ {
		prev[j] = elem(s[0], q[j]) + prev[j-1]
	}
	for i := 1; i < len(s); i++ {
		si := s[i]
		cur[0] = elem(si, q[0]) + prev[0]
		for j := 1; j < len(q); j++ {
			best := prev[j]
			if cur[j-1] < best {
				best = cur[j-1]
			}
			if prev[j-1] < best {
				best = prev[j-1]
			}
			cur[j] = elem(si, q[j]) + best
		}
		prev, cur = cur, prev
	}
	d := prev[len(q)-1]
	releaseRows(rp)
	return d
}

// withinKernelLInf is DistanceWithin's DP for seq.LInf with row-aliveness
// early abandoning.
func withinKernelLInf(s, q []float64, epsilon float64) (float64, bool) {
	rp := acquireRows(len(q))
	prev, cur := rp.prev, rp.cur
	alive := false
	v := math.Abs(s[0] - q[0])
	prev[0] = v
	if v <= epsilon {
		alive = true
	}
	for j := 1; j < len(q); j++ {
		e := math.Abs(s[0] - q[j])
		if prev[j-1] > e {
			e = prev[j-1]
		}
		prev[j] = e
		if e <= epsilon {
			alive = true
		}
	}
	if !alive {
		releaseRows(rp)
		return Inf, false
	}
	for i := 1; i < len(s); i++ {
		si := s[i]
		alive = false
		e := math.Abs(si - q[0])
		if prev[0] > e {
			e = prev[0]
		}
		cur[0] = e
		if e <= epsilon {
			alive = true
		}
		for j := 1; j < len(q); j++ {
			e := math.Abs(si - q[j])
			best := prev[j]
			if cur[j-1] < best {
				best = cur[j-1]
			}
			if prev[j-1] < best {
				best = prev[j-1]
			}
			if best > e {
				e = best
			}
			cur[j] = e
			if e <= epsilon {
				alive = true
			}
		}
		if !alive {
			releaseRows(rp)
			return Inf, false
		}
		prev, cur = cur, prev
	}
	d := prev[len(q)-1]
	releaseRows(rp)
	if d > epsilon {
		return Inf, false
	}
	return d, true
}

// withinKernelAdd is DistanceWithin's DP for the additive bases.
func withinKernelAdd(s, q []float64, squared bool, epsilon float64) (float64, bool) {
	rp := acquireRows(len(q))
	prev, cur := rp.prev, rp.cur
	elem := func(x, y float64) float64 {
		d := math.Abs(x - y)
		if squared {
			return d * d
		}
		return d
	}
	alive := false
	prev[0] = elem(s[0], q[0])
	if prev[0] <= epsilon {
		alive = true
	}
	for j := 1; j < len(q); j++ {
		prev[j] = elem(s[0], q[j]) + prev[j-1]
		if prev[j] <= epsilon {
			alive = true
		}
	}
	if !alive {
		releaseRows(rp)
		return Inf, false
	}
	for i := 1; i < len(s); i++ {
		si := s[i]
		alive = false
		cur[0] = elem(si, q[0]) + prev[0]
		if cur[0] <= epsilon {
			alive = true
		}
		for j := 1; j < len(q); j++ {
			best := prev[j]
			if cur[j-1] < best {
				best = cur[j-1]
			}
			if prev[j-1] < best {
				best = prev[j-1]
			}
			cur[j] = elem(si, q[j]) + best
			if cur[j] <= epsilon {
				alive = true
			}
		}
		if !alive {
			releaseRows(rp)
			return Inf, false
		}
		prev, cur = cur, prev
	}
	d := prev[len(q)-1]
	releaseRows(rp)
	if d > epsilon {
		return Inf, false
	}
	return d, true
}

// distanceGeneric is the original interface-style DP, kept as the fallback
// for base values outside the three specialized ones (none exist today; the
// fallback guards future Base additions) and as the reference the kernel
// equivalence tests compare against.
func distanceGeneric(s, q seq.Sequence, base seq.Base) float64 {
	rp := acquireRows(len(q))
	prev, cur := rp.prev, rp.cur
	for j := range prev {
		e := base.Elem(s[0], q[j])
		if j == 0 {
			prev[j] = e
		} else {
			prev[j] = base.Combine(e, prev[j-1])
		}
	}
	for i := 1; i < len(s); i++ {
		for j := range cur {
			e := base.Elem(s[i], q[j])
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
		prev, cur = cur, prev
	}
	d := prev[len(q)-1]
	releaseRows(rp)
	return d
}

// withinGeneric is the original early-abandoning DP kept as the
// unspecialized fallback (see distanceGeneric).
func withinGeneric(s, q seq.Sequence, base seq.Base, epsilon float64) (float64, bool) {
	rp := acquireRows(len(q))
	prev, cur := rp.prev, rp.cur
	alive := false
	for j := range prev {
		e := base.Elem(s[0], q[j])
		if j == 0 {
			prev[j] = e
		} else {
			prev[j] = base.Combine(e, prev[j-1])
		}
		if prev[j] <= epsilon {
			alive = true
		}
	}
	if !alive {
		releaseRows(rp)
		return Inf, false
	}
	for i := 1; i < len(s); i++ {
		alive = false
		for j := range cur {
			e := base.Elem(s[i], q[j])
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
			if cur[j] <= epsilon {
				alive = true
			}
		}
		if !alive {
			releaseRows(rp)
			return Inf, false
		}
		prev, cur = cur, prev
	}
	d := prev[len(q)-1]
	releaseRows(rp)
	if d > epsilon {
		return Inf, false
	}
	return d, true
}
