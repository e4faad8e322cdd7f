package flatidx

import (
	"math"
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
// L∞ rect mindist, but an item surfacing for the first time is re-keyed by
// max(mindist, sharpen(its ID)) before it is emitted — when the sharpened
// key no longer beats the frontier, the item re-enters the heap and later
// items surface first. Both levels are
// lower bounds of the distance the caller refines against, so the emitted
// key stream stays non-decreasing and the caller's stop condition is sound;
// it just fires earlier than the mindist alone would let it.

// heapItem is one frontier element: a packed node (node >= 0), a snapshot
// item (node == snapItem), a delta add (node == deltaItem, item indexes the
// view's adds array), or the delta cursor. The keyed variants mark an item
// whose priority was raised by the sharpener — already sharpened, never
// re-keyed.
//
// The delta is a second frontier (deltaFrontier): its adds are keyed by L∞
// distance apart from the main heap, which holds one deltaCursor entry
// keyed by the delta's minimum. Popping the cursor pops the delta's minimum
// as a deltaItem and re-pushes the cursor at the next minimum, so a walk
// keys a D-add delta in one pass and orders only the adds it reaches,
// instead of pushing all D onto the main heap.
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
	deltaCursor    = -5
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

// deltaBlock is the block size of a walk's delta frontier.
const deltaBlock = 64

// deltaFrontier hands out a walk's delta adds in non-decreasing raw L∞
// distance, on demand. The adds' distances sit in blocks of deltaBlock in
// array order; each block keeps its adds not yet popped at its front, and
// their minimum. Keying D adds is one pass of branch-free kernels with no
// ordering work; popping the minimum scans one block and the block minima,
// O(deltaBlock + D/deltaBlock). A walk pops only the few adds that reach
// its frontier minimum, so it never orders the rest (a heapify would, on
// every query, with a mispredicted branch per level).
type deltaFrontier struct {
	adds   []deltaAdd // block by block
	blocks []deltaBlockMin
	min    float64 // the smallest distance of an add not yet popped
	left   int     // adds not yet popped
}

type deltaAdd struct {
	dist float64 // raw L∞ distance from the query point
	i    int32   // index in the view's adds array
}

type deltaBlockMin struct {
	min  float64 // minimum distance over the block's live adds; +Inf when none
	live int     // the block's live adds are adds[b*deltaBlock:][:live]
}

// reset keys the adds by their L∞ distance from p.
func (f *deltaFrontier) reset(adds []Entry, p *[4]float64) {
	f.adds, f.blocks, f.left = f.adds[:0], f.blocks[:0], len(adds)
	for lo := 0; lo < len(adds); lo += deltaBlock {
		hi := min(lo+deltaBlock, len(adds))
		m := math.Inf(1)
		for i := lo; i < hi; i++ {
			d := pointDistLInf(&adds[i].Point, p)
			f.adds = append(f.adds, deltaAdd{d, int32(i)})
			m = min(m, d)
		}
		f.blocks = append(f.blocks, deltaBlockMin{min: m, live: hi - lo})
	}
	f.setMin()
}

func (f *deltaFrontier) setMin() {
	f.min = math.Inf(1)
	for _, b := range f.blocks {
		f.min = min(f.min, b.min)
	}
}

// pop removes an add at distance f.min and returns its index in the adds
// array; the last live add of its block moves into its slot. Nothing lies
// below f.min, so the tests skip what lies above it: a NaN (which the
// finite-input contract rules out) then matches the first live add
// instead of none.
func (f *deltaFrontier) pop() int32 {
	for bi := range f.blocks {
		b := &f.blocks[bi]
		if b.live == 0 || b.min > f.min {
			continue
		}
		live := f.adds[bi*deltaBlock:][:b.live]
		for j := range live {
			if live[j].dist > f.min {
				continue
			}
			i := live[j].i
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			b.live--
			b.min = math.Inf(1)
			for _, a := range live {
				b.min = min(b.min, a.dist)
			}
			f.left--
			f.setMin()
			return i
		}
	}
	panic("flatidx: delta frontier lost its minimum")
}

// WalkStats counts one nearest walk's frontier work.
type WalkStats struct {
	// Pushes is the total number of frontier pushes (nodes, items, and
	// envelope re-keys). Every delta add counts as one push, the cursor
	// that stands for the delta in the main heap as none.
	Pushes int64
	// Repushes counts items that re-entered the frontier with an
	// envelope-sharpened priority (the second frontier level).
	Repushes int64
	// EnvStops is 1 when the walk was stopped by the caller on an item whose
	// key had been raised above its L∞ mindist by the envelope bound — the
	// ordering tier ended the walk earlier than the mindist alone would have.
	EnvStops int64
}

// walkPool recycles frontier arrays across walks, and deltaPool the delta
// frontiers (one per walk over a non-empty delta, sized to the delta).
var (
	walkPool  = sync.Pool{New: func() any { h := make(knnHeap, 0, 128); return &h }}
	deltaPool = sync.Pool{New: func() any { return new(deltaFrontier) }}
)

// NearestWalk streams live entries in non-decreasing L∞ distance from p,
// calling fn with each entry and its distance; fn returning false stops
// the walk. Distances are exactly the rtree MinDist values (axis-gap
// maximum for rects, coordinate-difference maximum for points), so the
// search layer's stop condition fires at the identical entry on both
// engines.
func (x *Index) NearestWalk(p *[4]float64, fn func(e Entry, dist float64) bool) {
	x.NearestWalkKeyed(p, nil, fn)
}

// NearestWalkKeyed is NearestWalk with the two-level sharpened frontier —
// the contract rtree.Tree.NearestWalkKeyed has, so the search layer drives
// both engines alike. sharpen (nil = disabled) maps a surfacing item's ID
// to an additional lower bound of the distance the L∞ mindist bounds (the
// search layer resolves it from the envelope store), and the item is
// re-keyed by the max of the two before it is emitted. fn receives the
// final key; the key stream is non-decreasing.
func (x *Index) NearestWalkKeyed(p *[4]float64, sharpen func(id seq.ID) float64,
	fn func(e Entry, key float64) bool) WalkStats {
	var ws WalkStats
	v := x.view.Load()
	hp := walkPool.Get().(*knnHeap)
	h := (*hp)[:0]
	var df *deltaFrontier
	defer func() {
		*hp = h[:0]
		walkPool.Put(hp)
		if df != nil {
			deltaPool.Put(df)
		}
	}()
	if v.snap.Len() > 0 {
		h.push(heapItem{dist: v.snap.nodeDistLInf(0, p), node: 0})
		ws.Pushes++
	}
	if len(v.adds) > 0 {
		df = deltaPool.Get().(*deltaFrontier)
		df.reset(v.adds, p)
		h.push(heapItem{dist: df.min, node: deltaCursor})
		ws.Pushes += int64(len(v.adds))
	}
	for len(h) > 0 {
		top := h.pop()
		if top.node == deltaCursor {
			// The cursor's key is the delta minimum's: hand that add to the
			// deltaItem case, and re-enter the cursor at the next minimum
			// first, so the sharpener's frontier test below sees it.
			top.node, top.item = deltaItem, df.pop()
			if df.left > 0 {
				h.push(heapItem{dist: df.min, node: deltaCursor})
			}
		}
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
					h.push(heapItem{dist: v.snap.itemDistLInf(j, p), node: snapItem, item: int32(j)})
				}
			} else {
				for c := first; c < first+count; c++ {
					h.push(heapItem{dist: v.snap.nodeDistLInf(c, p), node: int32(c)})
				}
			}
			ws.Pushes += int64(count)
		}
	}
	return ws
}
