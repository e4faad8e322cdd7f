package rtree

import "math"

// splitNode distributes n's (overflowing) entries between n and a fresh
// sibling with Guttman's quadratic split, stores both nodes, and returns the
// sibling.
func (t *Tree) splitNode(n *node) (*node, error) {
	groupA, groupB := t.quadraticSplit(n.entries)
	sibling, err := t.allocNode(n.leaf)
	if err != nil {
		return nil, err
	}
	n.entries = groupA
	sibling.entries = groupB
	if err := t.storeNode(n); err != nil {
		return nil, err
	}
	if err := t.storeNode(sibling); err != nil {
		return nil, err
	}
	return sibling, nil
}

// quadraticSplit implements Guttman's quadratic split: pick the pair of
// entries wasting the most area as seeds, then repeatedly assign the entry
// with the greatest preference difference to its preferred group, subject to
// the minimum fill constraint.
func (t *Tree) quadraticSplit(entries []Entry) (groupA, groupB []Entry) {
	seedA, seedB := pickSeedsQuadratic(entries)
	groupA = append(groupA, entries[seedA])
	groupB = append(groupB, entries[seedB])
	rectA := entries[seedA].Rect.Clone()
	rectB := entries[seedB].Rect.Clone()

	remaining := make([]Entry, 0, len(entries)-2)
	for i, e := range entries {
		if i != seedA && i != seedB {
			remaining = append(remaining, e)
		}
	}

	for len(remaining) > 0 {
		// Honour minimum fill: if one group needs all remaining entries to
		// reach m, hand them over.
		if len(groupA)+len(remaining) <= t.min {
			for _, e := range remaining {
				groupA = append(groupA, e)
				rectA = rectA.Union(e.Rect)
			}
			break
		}
		if len(groupB)+len(remaining) <= t.min {
			for _, e := range remaining {
				groupB = append(groupB, e)
				rectB = rectB.Union(e.Rect)
			}
			break
		}
		// PickNext: the entry with the maximum |d1 - d2|.
		bestIdx, bestDiff := -1, -1.0
		var bestD1, bestD2 float64
		for i, e := range remaining {
			d1 := rectA.Enlargement(e.Rect)
			d2 := rectB.Enlargement(e.Rect)
			diff := math.Abs(d1 - d2)
			if diff > bestDiff {
				bestIdx, bestDiff, bestD1, bestD2 = i, diff, d1, d2
			}
		}
		e := remaining[bestIdx]
		remaining[bestIdx] = remaining[len(remaining)-1]
		remaining = remaining[:len(remaining)-1]
		toA := bestD1 < bestD2
		if bestD1 == bestD2 {
			// Resolve ties by smaller area, then fewer entries.
			switch {
			case rectA.Area() != rectB.Area():
				toA = rectA.Area() < rectB.Area()
			default:
				toA = len(groupA) <= len(groupB)
			}
		}
		if toA {
			groupA = append(groupA, e)
			rectA = rectA.Union(e.Rect)
		} else {
			groupB = append(groupB, e)
			rectB = rectB.Union(e.Rect)
		}
	}
	return groupA, groupB
}

// pickSeedsQuadratic returns the indexes of the two entries that would waste
// the most area if placed together.
func pickSeedsQuadratic(entries []Entry) (int, int) {
	seedA, seedB := 0, 1
	worst := math.Inf(-1)
	for i := 0; i < len(entries); i++ {
		for j := i + 1; j < len(entries); j++ {
			joined := entries[i].Rect.Union(entries[j].Rect)
			waste := joined.Area() - entries[i].Rect.Area() - entries[j].Rect.Area()
			if waste > worst {
				worst, seedA, seedB = waste, i, j
			}
		}
	}
	return seedA, seedB
}
