package rtree

import (
	"math/rand"
	"testing"
)

// randRect produces a small random rectangle (the tree must handle true
// rectangles, not only points, since internal entries are MBRs).
func randRect(rng *rand.Rand, dim int) Rect {
	lo := make([]float64, dim)
	hi := make([]float64, dim)
	for i := range lo {
		lo[i] = rng.Float64() * 100
		hi[i] = lo[i] + rng.Float64()*10
	}
	return Rect{Lo: lo, Hi: hi}
}

func TestRectangleEntriesAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	tree := newTree(t, 3, Options{})
	var rects []Rect
	for i := 0; i < 300; i++ {
		r := randRect(rng, 3)
		rects = append(rects, r)
		if err := tree.Insert(r, uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 30; trial++ {
		query := randRect(rng, 3)
		var got []uint32
		if err := tree.Search(query, func(_ Rect, id uint32) bool {
			got = append(got, id)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		var want []uint32
		for id, r := range rects {
			if query.Intersects(r) {
				want = append(want, uint32(id))
			}
		}
		if !equalIDs(sortedIDs(got), sortedIDs(want)) {
			t.Fatalf("trial %d: got %d, want %d results", trial, len(got), len(want))
		}
	}
	// Delete a third of the rectangles and re-verify.
	for i := 0; i < 100; i++ {
		found, err := tree.Delete(rects[i], uint32(i))
		if err != nil || !found {
			t.Fatalf("delete %d: %v %v", i, found, err)
		}
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	query := randRect(rng, 3)
	var got []uint32
	if err := tree.Search(query, func(_ Rect, id uint32) bool {
		got = append(got, id)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	for _, id := range got {
		if id < 100 {
			t.Fatalf("deleted rect %d still found", id)
		}
	}
}

func TestDuplicatePointsDistinctIDs(t *testing.T) {
	tree := newTree(t, 2, Options{})
	p := NewPoint([]float64{5, 5})
	for i := 0; i < 50; i++ {
		if err := tree.Insert(p, uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	var got []uint32
	if err := tree.Search(p, func(_ Rect, id uint32) bool {
		got = append(got, id)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 50 {
		t.Fatalf("found %d of 50 duplicates", len(got))
	}
	// Delete one specific duplicate; the rest must remain.
	found, err := tree.Delete(p, 25)
	if err != nil || !found {
		t.Fatalf("delete duplicate: %v %v", found, err)
	}
	got = got[:0]
	if err := tree.Search(p, func(_ Rect, id uint32) bool {
		got = append(got, id)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 49 {
		t.Fatalf("after delete: %d, want 49", len(got))
	}
	for _, id := range got {
		if id == 25 {
			t.Fatal("deleted duplicate still present")
		}
	}
}
