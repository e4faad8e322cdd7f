package core

import (
	"math"

	"repro/internal/seq"
)

// upperBoundAligned returns the cost of the all-diagonal warping path —
// pairing s[i] with q[i] — which is a legal path of the unconstrained DTW
// and of every Sakoe–Chiba band (|i−i| = 0 ≤ r), so its cost upper-bounds
// the exact distance the query answers, banded or not. ok=false when the
// lengths differ: the pure diagonal is not a complete path then, and k-NN
// simply skips the upper bound for that candidate.
func (c *cascade) upperBoundAligned(s seq.Sequence) (float64, bool) {
	if len(s) != len(c.q) || len(s) == 0 {
		return 0, false
	}
	if c.base == seq.LInf {
		max := 0.0
		for i := range s {
			if e := c.base.Elem(s[i], c.q[i]); e > max {
				max = e
			}
		}
		return max, true
	}
	acc := 0.0
	for i := range s {
		acc += c.base.Elem(s[i], c.q[i])
	}
	return acc, true
}

// ubTracker keeps the k smallest DTW upper bounds seen during one k-NN
// search, as a max-heap of size ≤ k. Once full, Kth() upper-bounds the
// k-th smallest exact distance among the candidates seen so far — and the
// global k-th over all candidates can only be smaller — so
// min(k-th best exact, Kth()) is a sound pruning cutoff from the first
// fetched candidate onward, long before k exact distances exist
// (DESIGN.md §12). Without it every early candidate meets an infinite
// cutoff and must be resolved by a full DTW.
type ubTracker struct {
	k int
	h []float64
}

// newUBTracker starts from an empty heap that Add grows by append: k comes
// from the caller (the wire, ultimately) and may be astronomically larger
// than the database, so it must not size an allocation. The heap never holds
// more bounds than there are candidates to produce them, and Kth() stays
// +Inf until k bounds exist — for k beyond the live count, never.
func newUBTracker(k int) *ubTracker {
	return &ubTracker{k: k}
}

// Add records one candidate's upper bound and returns the current Kth().
func (t *ubTracker) Add(ub float64) float64 {
	if len(t.h) < t.k {
		t.h = append(t.h, ub)
		// Sift up.
		i := len(t.h) - 1
		for i > 0 {
			p := (i - 1) / 2
			if t.h[p] >= t.h[i] {
				break
			}
			t.h[p], t.h[i] = t.h[i], t.h[p]
			i = p
		}
		return t.Kth()
	}
	if ub >= t.h[0] {
		return t.h[0]
	}
	// Replace the max and sift down.
	t.h[0] = ub
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < len(t.h) && t.h[l] > t.h[big] {
			big = l
		}
		if r < len(t.h) && t.h[r] > t.h[big] {
			big = r
		}
		if big == i {
			break
		}
		t.h[i], t.h[big] = t.h[big], t.h[i]
		i = big
	}
	return t.h[0]
}

// Kth returns the largest of the k recorded bounds, or +Inf while fewer
// than k candidates have been seen (no sound k-th bound exists yet).
func (t *ubTracker) Kth() float64 {
	if len(t.h) < t.k {
		return math.Inf(1)
	}
	return t.h[0]
}

// deferred is one k-NN candidate whose exact DP was postponed behind the
// index walk: lb is its strongest Tier 1 bound (the resolve key), tier the
// tier that produced it, and s the fetched sequence (cache slices are
// shared-immutable, so retaining one is safe).
type deferred struct {
	id   seq.ID
	s    seq.Sequence
	lb   float64
	tier int
}

// deferHeap is a hand-rolled min-heap of deferred candidates keyed by
// (lb, id); the id tiebreak keeps the resolve order — and therefore the
// per-tier stat attribution — deterministic.
type deferHeap []deferred

func (h deferHeap) less(i, j int) bool {
	if h[i].lb != h[j].lb {
		return h[i].lb < h[j].lb
	}
	return h[i].id < h[j].id
}

func (h *deferHeap) push(d deferred) {
	*h = append(*h, d)
	a := *h
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !a.less(i, p) {
			break
		}
		a[i], a[p] = a[p], a[i]
		i = p
	}
}

func (h *deferHeap) pop() deferred {
	a := *h
	top := a[0]
	n := len(a) - 1
	a[0] = a[n]
	a[n] = deferred{} // release the retained sequence
	*h = a[:n]
	a = a[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && a.less(l, small) {
			small = l
		}
		if r < n && a.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		a[i], a[small] = a[small], a[i]
		i = small
	}
	return top
}
