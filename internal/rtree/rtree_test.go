package rtree

import (
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/pagefile"
)

func newTree(t *testing.T, dim int, opts Options) *Tree {
	t.Helper()
	pool, err := pagefile.NewPool(pagefile.NewMemBackend(512), 512, 32)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Create(pool, dim, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tree.Close() })
	return tree
}

func randPoint(rng *rand.Rand, dim int) []float64 {
	p := make([]float64, dim)
	for i := range p {
		p[i] = rng.Float64() * 100
	}
	return p
}

// bruteRange returns the ids of points intersecting query.
func bruteRange(points [][]float64, query Rect) []uint32 {
	var out []uint32
	for id, p := range points {
		if query.Intersects(NewPoint(p)) {
			out = append(out, uint32(id))
		}
	}
	return out
}

func sortedIDs(ids []uint32) []uint32 {
	out := append([]uint32(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalIDs(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestInsertSearchAgainstBruteForce(t *testing.T) {
	for _, dim := range []int{2, 4} {
		rng := rand.New(rand.NewSource(int64(dim)))
		tree := newTree(t, dim, Options{})
		var points [][]float64
		for i := 0; i < 500; i++ {
			p := randPoint(rng, dim)
			points = append(points, p)
			if err := tree.Insert(NewPoint(p), uint32(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Fatalf("dim=%d: %v", dim, err)
		}
		if tree.Len() != 500 {
			t.Fatalf("Len = %d", tree.Len())
		}
		for trial := 0; trial < 50; trial++ {
			lo := randPoint(rng, dim)
			hi := make([]float64, dim)
			for i := range hi {
				hi[i] = lo[i] + rng.Float64()*30
			}
			query, err := NewRect(lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			var got []uint32
			if err := tree.Search(query, func(_ Rect, id uint32) bool {
				got = append(got, id)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			want := bruteRange(points, query)
			if !equalIDs(sortedIDs(got), sortedIDs(want)) {
				t.Fatalf("dim=%d query %v: got %v, want %v",
					dim, query, sortedIDs(got), sortedIDs(want))
			}
		}
	}
}

func TestSearchEarlyStop(t *testing.T) {
	tree := newTree(t, 2, Options{})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		if err := tree.Insert(NewPoint(randPoint(rng, 2)), uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	everything, _ := NewRect([]float64{-1, -1}, []float64{101, 101})
	count := 0
	if err := tree.Search(everything, func(_ Rect, _ uint32) bool {
		count++
		return count < 5
	}); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Errorf("early stop visited %d", count)
	}
}

func TestSearchAll(t *testing.T) {
	tree := newTree(t, 2, Options{})
	for i := 0; i < 10; i++ {
		if err := tree.Insert(NewPoint([]float64{float64(i), 0}), uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	query, _ := NewRect([]float64{2.5, -1}, []float64{6.5, 1})
	got, err := tree.SearchAll(query)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 { // points 3,4,5,6
		t.Errorf("SearchAll returned %d entries", len(got))
	}
}

func TestDimensionMismatch(t *testing.T) {
	tree := newTree(t, 3, Options{})
	if err := tree.Insert(NewPoint([]float64{1, 2}), 0); err == nil {
		t.Error("Insert accepted wrong dimension")
	}
	if err := tree.Search(NewPoint([]float64{1}), func(Rect, uint32) bool { return true }); err == nil {
		t.Error("Search accepted wrong dimension")
	}
	if _, err := tree.Delete(NewPoint([]float64{1}), 0); err == nil {
		t.Error("Delete accepted wrong dimension")
	}
}

func TestDeleteAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tree := newTree(t, 2, Options{})
	var points [][]float64
	alive := map[uint32]bool{}
	for i := 0; i < 300; i++ {
		p := randPoint(rng, 2)
		points = append(points, p)
		alive[uint32(i)] = true
		if err := tree.Insert(NewPoint(p), uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Delete a random 2/3rds, verifying structure along the way.
	perm := rng.Perm(300)
	for k, idx := range perm[:200] {
		id := uint32(idx)
		found, err := tree.Delete(NewPoint(points[idx]), id)
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			t.Fatalf("Delete(%d) not found", id)
		}
		delete(alive, id)
		if k%50 == 0 {
			if err := tree.CheckInvariants(); err != nil {
				t.Fatalf("after %d deletes: %v", k+1, err)
			}
		}
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tree.Len() != 100 {
		t.Fatalf("Len after deletes = %d", tree.Len())
	}
	everything, _ := NewRect([]float64{-1, -1}, []float64{101, 101})
	var got []uint32
	if err := tree.Search(everything, func(_ Rect, id uint32) bool {
		got = append(got, id)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(alive) {
		t.Fatalf("search found %d, want %d", len(got), len(alive))
	}
	for _, id := range got {
		if !alive[id] {
			t.Fatalf("deleted id %d still present", id)
		}
	}
}

func TestDeleteAbsent(t *testing.T) {
	tree := newTree(t, 2, Options{})
	if err := tree.Insert(NewPoint([]float64{1, 1}), 7); err != nil {
		t.Fatal(err)
	}
	found, err := tree.Delete(NewPoint([]float64{2, 2}), 7)
	if err != nil || found {
		t.Errorf("Delete absent = %v, %v", found, err)
	}
	// Same point, wrong id.
	found, err = tree.Delete(NewPoint([]float64{1, 1}), 8)
	if err != nil || found {
		t.Errorf("Delete wrong id = %v, %v", found, err)
	}
}

func TestDeleteToEmptyAndReuse(t *testing.T) {
	tree := newTree(t, 2, Options{})
	rng := rand.New(rand.NewSource(11))
	var points [][]float64
	for i := 0; i < 150; i++ {
		p := randPoint(rng, 2)
		points = append(points, p)
		if err := tree.Insert(NewPoint(p), uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range points {
		found, err := tree.Delete(NewPoint(p), uint32(i))
		if err != nil || !found {
			t.Fatalf("delete %d: %v %v", i, found, err)
		}
	}
	if tree.Len() != 0 {
		t.Fatalf("Len = %d after deleting everything", tree.Len())
	}
	if tree.Height() != 1 {
		t.Errorf("Height = %d after emptying, want 1", tree.Height())
	}
	// Insert again into the emptied tree (exercising free-list reuse).
	pagesBefore := tree.NodePages()
	for i := 0; i < 150; i++ {
		if err := tree.Insert(NewPoint(points[i]), uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tree.NodePages() > pagesBefore+5 {
		t.Errorf("free list not reused: pages %d -> %d", pagesBefore, tree.NodePages())
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tree.twp")
	backend, err := pagefile.CreateFile(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := pagefile.NewPool(backend, 512, 16)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Create(pool, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	var points [][]float64
	for i := 0; i < 200; i++ {
		p := randPoint(rng, 4)
		points = append(points, p)
		if err := tree.Insert(NewPoint(p), uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}

	backend2, err := pagefile.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pool2, err := pagefile.NewPool(backend2, 512, 16)
	if err != nil {
		t.Fatal(err)
	}
	tree2, err := Open(pool2)
	if err != nil {
		t.Fatal(err)
	}
	defer tree2.Close()
	if tree2.Len() != 200 || tree2.Dim() != 4 {
		t.Fatalf("reopened Len=%d Dim=%d", tree2.Len(), tree2.Dim())
	}
	if err := tree2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	query, _ := NewRect([]float64{0, 0, 0, 0}, []float64{50, 50, 50, 50})
	var got []uint32
	if err := tree2.Search(query, func(_ Rect, id uint32) bool {
		got = append(got, id)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := bruteRange(points, query)
	if !equalIDs(sortedIDs(got), sortedIDs(want)) {
		t.Fatalf("after reopen: got %d, want %d results", len(got), len(want))
	}
}

func TestRectOps(t *testing.T) {
	a, _ := NewRect([]float64{0, 0}, []float64{2, 3})
	b, _ := NewRect([]float64{1, 1}, []float64{4, 4})
	if got := a.Area(); got != 6 {
		t.Errorf("Area = %g", got)
	}
	u := a.Union(b)
	if !u.Equal(Rect{Lo: []float64{0, 0}, Hi: []float64{4, 4}}) {
		t.Errorf("Union = %v", u)
	}
	if got := a.Enlargement(b); got != 16-6 {
		t.Errorf("Enlargement = %g", got)
	}
	if !a.Intersects(b) || !b.Intersects(a) {
		t.Error("Intersects false for overlapping rects")
	}
	far, _ := NewRect([]float64{10, 10}, []float64{11, 11})
	if a.Intersects(far) {
		t.Error("Intersects true for disjoint rects")
	}
	if !u.Contains(a) || a.Contains(u) {
		t.Error("Contains wrong")
	}
	c := a.Center()
	if c[0] != 1 || c[1] != 1.5 {
		t.Errorf("Center = %v", c)
	}
	if a.Equal(b) {
		t.Error("Equal true for different rects")
	}
}

func TestNewRectValidation(t *testing.T) {
	if _, err := NewRect([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("dim mismatch accepted")
	}
	if _, err := NewRect([]float64{2}, []float64{1}); err == nil {
		t.Error("inverted rect accepted")
	}
}

func TestMinDist(t *testing.T) {
	r, _ := NewRect([]float64{0, 0}, []float64{2, 2})
	// Inside.
	if got := r.MinDist([]float64{1, 1}, NormLInf); got != 0 {
		t.Errorf("inside MinDist = %g", got)
	}
	// Outside along one axis.
	if got := r.MinDist([]float64{5, 1}, NormLInf); got != 3 {
		t.Errorf("Linf MinDist = %g", got)
	}
	if got := r.MinDist([]float64{5, 6}, NormL2); math.Abs(got-5) > 1e-12 {
		t.Errorf("L2 MinDist = %g, want 5", got)
	}
	if got := r.MinDist([]float64{5, 6}, NormLInf); got != 4 {
		t.Errorf("Linf MinDist = %g, want 4", got)
	}
}

func TestMaxEntriesOptionForcesDeepTree(t *testing.T) {
	tree := newTree(t, 2, Options{MaxEntries: 4})
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 200; i++ {
		if err := tree.Insert(NewPoint(randPoint(rng, 2)), uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tree.Height() < 3 {
		t.Errorf("Height = %d with fanout 4 over 200 points", tree.Height())
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCreateRequiresEmptyPool(t *testing.T) {
	pool, err := pagefile.NewPool(pagefile.NewMemBackend(512), 512, 8)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := pool.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	pg.Unpin()
	if _, err := Create(pool, 2, Options{}); err == nil {
		t.Error("Create on non-empty pool accepted")
	}
}

func TestCreateRejectsBadDim(t *testing.T) {
	pool, _ := pagefile.NewPool(pagefile.NewMemBackend(512), 512, 8)
	if _, err := Create(pool, 0, Options{}); err == nil {
		t.Error("dim 0 accepted")
	}
}
