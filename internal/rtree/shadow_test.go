package rtree

import (
	"math/rand"
	"testing"
)

// TestRandomOpsShadowModel drives the tree with a random interleaving of
// inserts, deletes, and range queries, checking
// each query against a brute-force shadow set and the structural
// invariants periodically.
func TestRandomOpsShadowModel(t *testing.T) {
	t.Run("quadratic", func(t *testing.T) {
		rng := rand.New(rand.NewSource(2027))
		tree := newTree(t, 2, Options{MaxEntries: 8})
		type item struct {
			rect Rect
			id   uint32
		}
		var live []item
		nextID := uint32(0)
		for step := 0; step < 1500; step++ {
			switch op := rng.Intn(10); {
			case op < 5 || len(live) < 5: // insert
				r := randRect(rng, 2)
				if rng.Intn(2) == 0 {
					r = NewPoint(randPoint(rng, 2))
				}
				if err := tree.Insert(r, nextID); err != nil {
					t.Fatalf("step %d: insert: %v", step, err)
				}
				live = append(live, item{rect: r, id: nextID})
				nextID++
			case op < 7: // delete
				i := rng.Intn(len(live))
				found, err := tree.Delete(live[i].rect, live[i].id)
				if err != nil || !found {
					t.Fatalf("step %d: delete(%d) = %v, %v", step, live[i].id, found, err)
				}
				live = append(live[:i], live[i+1:]...)
			default: // range query vs shadow
				query := randRect(rng, 2)
				got := map[uint32]bool{}
				if err := tree.Search(query, func(_ Rect, id uint32) bool {
					got[id] = true
					return true
				}); err != nil {
					t.Fatalf("step %d: search: %v", step, err)
				}
				want := 0
				for _, it := range live {
					if query.Intersects(it.rect) {
						want++
						if !got[it.id] {
							t.Fatalf("step %d: item %d missing from search", step, it.id)
						}
					}
				}
				if len(got) != want {
					t.Fatalf("step %d: search returned %d, shadow has %d", step, len(got), want)
				}
			}
			if step%250 == 249 {
				if err := tree.CheckInvariants(); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if tree.Len() != len(live) {
					t.Fatalf("step %d: Len %d, shadow %d", step, tree.Len(), len(live))
				}
			}
		}
	})
}
