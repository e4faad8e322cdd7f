package flatidx

import (
	"sync"

	"repro/internal/seq"
)

// Best-first (Hjaltason–Samet) nearest-neighbor walk over snapshot ∪ delta
// under the L∞ norm — the flat counterpart of rtree.NearestWalk with
// NormLInf. The priority queue is a hand-rolled binary heap of plain
// structs (no container/heap interface boxing) drawn from a sync.Pool, so a
// steady-state walk allocates nothing at all.
//
// The walk optionally runs a two-level frontier: nodes stay ordered by the
// (transformed) L∞ rect mindist, but an item surfacing for the first time
// is re-keyed by max(transformed mindist, sharpen(its ID)) before it is
// emitted — when the sharpened key no longer beats the frontier, the
// item re-enters the heap and later items surface first. Both levels are
// lower bounds of the distance the caller refines against, so the emitted
// key stream stays non-decreasing and the caller's stop condition is sound;
// it just fires earlier than the mindist alone would let it.

// heapItem is one frontier element: a packed node (node >= 0), a snapshot
// item (node == snapItem), or a delta add (node == deltaItem, item indexes
// the view's adds array). The keyed variants mark an item whose priority
// was raised by the sharpener — already sharpened, never re-keyed.
type heapItem struct {
	dist float64
	node int32
	item int32
}

const (
	snapItem       = -1
	deltaItem      = -2
	keyedSnapItem  = -3
	keyedDeltaItem = -4
)

type knnHeap []heapItem

func (h *knnHeap) push(it heapItem) {
	*h = append(*h, it)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if (*h)[parent].dist <= (*h)[i].dist {
			break
		}
		(*h)[parent], (*h)[i] = (*h)[i], (*h)[parent]
		i = parent
	}
}

func (h *knnHeap) pop() heapItem {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && old[l].dist < old[small].dist {
			small = l
		}
		if r < n && old[r].dist < old[small].dist {
			small = r
		}
		if small == i {
			break
		}
		old[i], old[small] = old[small], old[i]
		i = small
	}
	return top
}

// WalkStats counts one nearest walk's frontier work.
type WalkStats struct {
	// Pushes is the total number of frontier pushes (nodes, items, and
	// envelope re-keys).
	Pushes int64
	// Repushes counts items that re-entered the frontier with an
	// envelope-sharpened priority (the second frontier level).
	Repushes int64
	// EnvStops is 1 when the walk was stopped by the caller on an item whose
	// key had been raised above its L∞ mindist by the envelope bound — the
	// ordering tier ended the walk earlier than the mindist alone would have.
	EnvStops int64
}

// walkPool recycles frontier arrays across walks.
var walkPool = sync.Pool{New: func() any { h := make(knnHeap, 0, 128); return &h }}

// NearestWalk streams live entries in non-decreasing L∞ distance from p,
// calling fn with each entry and its distance; fn returning false stops
// the walk. Distances are exactly the rtree MinDist values (axis-gap
// maximum for rects, coordinate-difference maximum for points), so the
// search layer's stop condition fires at the identical entry on both
// engines.
func (x *Index) NearestWalk(p *[4]float64, fn func(e Entry, dist float64) bool) {
	x.NearestWalkKeyed(p, nil, nil, fn)
}

func identityKey(d float64) float64 { return d }

// NearestWalkKeyed is NearestWalk with the two-level sharpened frontier —
// the contract rtree.Tree.NearestWalkKeyed has, so the search layer drives
// both engines alike. xform (nil = identity) is a monotone non-decreasing
// transform applied to every L∞ mindist, so the caller can key the whole
// frontier in its own comparable space; sharpen (nil = disabled) maps a
// surfacing item's ID to an additional lower bound in that same space (the
// search layer resolves it from the envelope store), and the item is
// re-keyed by the max of the two before it is emitted. fn receives the
// final key; the key stream is non-decreasing.
func (x *Index) NearestWalkKeyed(p *[4]float64, xform func(float64) float64,
	sharpen func(id seq.ID) float64, fn func(e Entry, key float64) bool) WalkStats {
	var ws WalkStats
	v := x.view.Load()
	xf := xform
	if xf == nil {
		xf = identityKey
	}
	hp := walkPool.Get().(*knnHeap)
	h := (*hp)[:0]
	defer func() {
		*hp = h[:0]
		walkPool.Put(hp)
	}()
	if v.snap.Len() > 0 {
		h.push(heapItem{dist: xf(v.snap.nodeDistLInf(0, p)), node: 0})
		ws.Pushes++
	}
	for i := range v.adds {
		e := &v.adds[i]
		max := 0.0
		for d := 0; d < 4; d++ {
			g := e.Point[d] - p[d]
			if g < 0 {
				g = -g
			}
			if g > max {
				max = g
			}
		}
		h.push(heapItem{dist: xf(max), node: deltaItem, item: int32(i)})
		ws.Pushes++
	}
	for len(h) > 0 {
		top := h.pop()
		switch top.node {
		case snapItem:
			e := v.snap.item(int(top.item))
			if _, dead := v.dels[e]; dead {
				continue
			}
			if sharpen != nil {
				if lb := sharpen(e.ID); lb > top.dist {
					// The sharpener raised the key. If it no longer beats the
					// frontier, defer the item (tombstone already checked, so
					// the keyed pop emits without re-decoding); otherwise it
					// is still the minimum and can be emitted at the new key.
					if len(h) > 0 && lb > h[0].dist {
						h.push(heapItem{dist: lb, node: keyedSnapItem, item: top.item})
						ws.Pushes++
						ws.Repushes++
						continue
					}
					top.dist, top.node = lb, keyedSnapItem
				}
			}
			if !fn(e, top.dist) {
				if top.node == keyedSnapItem {
					ws.EnvStops++
				}
				return ws
			}
		case keyedSnapItem:
			if !fn(v.snap.item(int(top.item)), top.dist) {
				ws.EnvStops++
				return ws
			}
		case deltaItem:
			// Delta adds ride the same two-level re-key as snapshot items.
			if sharpen != nil {
				if lb := sharpen(v.adds[top.item].ID); lb > top.dist {
					if len(h) > 0 && lb > h[0].dist {
						h.push(heapItem{dist: lb, node: keyedDeltaItem, item: top.item})
						ws.Pushes++
						ws.Repushes++
						continue
					}
					top.dist, top.node = lb, keyedDeltaItem
				}
			}
			if !fn(v.adds[top.item], top.dist) {
				if top.node == keyedDeltaItem {
					ws.EnvStops++
				}
				return ws
			}
		case keyedDeltaItem:
			if !fn(v.adds[top.item], top.dist) {
				ws.EnvStops++
				return ws
			}
		default:
			first, count, leaf := v.snap.nodeFirstCount(int(top.node))
			if leaf {
				for j := first; j < first+count; j++ {
					h.push(heapItem{dist: xf(v.snap.itemDistLInf(j, p)), node: snapItem, item: int32(j)})
				}
			} else {
				for c := first; c < first+count; c++ {
					h.push(heapItem{dist: xf(v.snap.nodeDistLInf(c, p)), node: int32(c)})
				}
			}
			ws.Pushes += int64(count)
		}
	}
	return ws
}
