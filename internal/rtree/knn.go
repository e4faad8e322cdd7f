package rtree

import (
	"container/heap"
	"fmt"

	"repro/internal/pagefile"
)

// Neighbor is one k-NN result: a data entry plus its distance to the query
// point under the chosen norm.
type Neighbor struct {
	Entry Entry
	Dist  float64
}

// pqItem is either a node (to expand) or a data entry (to emit). raised
// marks an entry whose priority was sharpened by an envelope bound — it is
// emitted at that key without being re-keyed again.
type pqItem struct {
	dist   float64
	israw  bool // true: data entry; false: node page
	raised bool
	entry  Entry
	pid    pagefile.PageID
}

type pqueue []pqItem

func (q pqueue) Len() int            { return len(q) }
func (q pqueue) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q pqueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pqueue) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *pqueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// WalkStats counts one nearest walk's frontier work (same meaning as
// flatidx.WalkStats, so the search layer aggregates both engines alike).
type WalkStats struct {
	Pushes   int64
	Repushes int64
	EnvStops int64
}

// NearestK returns the k data entries nearest to point p under norm, in
// non-decreasing distance order, using best-first (Hjaltason–Samet)
// traversal. Distances are point-to-rectangle MinDist values, which for
// point data equal the point-to-point distance.
//
// Because the paper's Dtw-lb is the L∞ metric over feature vectors,
// NearestK with NormLInf enumerates candidates in lower-bound order — the
// basis of the exact k-NN extension in the search layer.
func (t *Tree) NearestK(p []float64, k int, norm Norm) ([]Neighbor, error) {
	out := make([]Neighbor, 0, k)
	err := t.NearestWalk(p, norm, func(n Neighbor) bool {
		out = append(out, n)
		return len(out) < k
	})
	return out, err
}

// NearestWalk streams data entries in non-decreasing MinDist order, calling
// fn for each; fn returning false stops the traversal. This incremental form
// lets callers refine with an exact distance and stop once the lower bound
// exceeds their current k-th best (exact k-NN without a fixed candidate
// count).
func (t *Tree) NearestWalk(p []float64, norm Norm, fn func(Neighbor) bool) error {
	_, err := t.NearestWalkKeyed(p, norm, nil, fn)
	return err
}

// NearestWalkKeyed is NearestWalk with a two-level envelope-sharpened
// frontier. sharpen (nil = disabled) maps a surfacing data entry to an
// additional lower bound of the distance MinDist bounds, and the entry is
// re-keyed by the max of the two before it is emitted — when the sharpened
// key no longer beats the frontier the entry re-enters the heap and later
// entries surface first. Both levels lower-bound the distance the caller
// refines against, so the emitted key stream stays non-decreasing and the
// caller's stop condition is sound; it just fires earlier than MinDist
// alone allows.
func (t *Tree) NearestWalkKeyed(p []float64, norm Norm, sharpen func(e *Entry) float64,
	fn func(Neighbor) bool) (WalkStats, error) {
	var ws WalkStats
	if len(p) != t.dim {
		return ws, fmt.Errorf("%w: point dim %d, tree dim %d", ErrDimension, len(p), t.dim)
	}
	if t.size == 0 {
		return ws, nil
	}
	q := &pqueue{{dist: 0, pid: t.root}}
	ws.Pushes++
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		if it.israw {
			if !it.raised && sharpen != nil {
				if lb := sharpen(&it.entry); lb > it.dist {
					if q.Len() > 0 && lb > (*q)[0].dist {
						heap.Push(q, pqItem{dist: lb, israw: true, raised: true, entry: it.entry})
						ws.Pushes++
						ws.Repushes++
						continue
					}
					it.dist, it.raised = lb, true
				}
			}
			if !fn(Neighbor{Entry: it.entry, Dist: it.dist}) {
				if it.raised {
					ws.EnvStops++
				}
				return ws, nil
			}
			continue
		}
		n, err := t.loadNode(it.pid)
		if err != nil {
			return ws, err
		}
		for _, e := range n.entries {
			d := e.Rect.MinDist(p, norm)
			if n.leaf {
				heap.Push(q, pqItem{dist: d, israw: true, entry: e})
			} else {
				heap.Push(q, pqItem{dist: d, pid: pagefile.PageID(e.Child)})
			}
			ws.Pushes++
		}
	}
	return ws, nil
}
