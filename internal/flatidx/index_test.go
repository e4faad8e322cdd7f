package flatidx

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// model is a map-backed reference the index is checked against.
type model map[Entry]struct{}

// checkAgainstModel holds every read of x to the model: the live count, the
// entry listing, a range walk over a random rect and the whole key stream of
// the nearest walk from a random point.
func checkAgainstModel(t *testing.T, x *Index, m model, rng *rand.Rand) {
	t.Helper()
	if x.Len() != len(m) {
		t.Fatalf("Len=%d, model has %d", x.Len(), len(m))
	}
	got := x.Entries(nil)
	if len(got) != len(m) {
		t.Fatalf("Entries returned %d, model has %d", len(got), len(m))
	}
	for _, e := range got {
		if _, ok := m[e]; !ok {
			t.Fatalf("index holds %+v, model does not", e)
		}
	}
	if err := x.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	live := make([]Entry, 0, len(m))
	for e := range m {
		live = append(live, e)
	}
	var p, lo, hi [4]float64
	for d := 0; d < 4; d++ {
		p[d] = rng.NormFloat64() * 10
		lo[d], hi[d] = p[d]-8, p[d]+8
	}
	inRect := x.AppendRange(nil, &lo, &hi)
	want := bruteRange(live, lo, hi)
	sortEntries(inRect)
	sortEntries(want)
	if len(inRect) != len(want) {
		t.Fatalf("range got %d, want %d", len(inRect), len(want))
	}
	for i := range inRect {
		if inRect[i] != want[i] {
			t.Fatalf("range entry %d = %+v, want %+v", i, inRect[i], want[i])
		}
	}

	dists := make([]float64, 0, len(live))
	for _, e := range live {
		dists = append(dists, lInf(e.Point, p))
	}
	sort.Float64s(dists)
	walked := 0
	x.NearestWalkKeyed(&p, nil, func(e Entry, key float64) bool {
		if _, ok := m[e]; !ok {
			t.Fatalf("walk yielded %+v, model does not hold it", e)
		}
		if key != dists[walked] {
			t.Fatalf("walk key %d = %g, model says %g", walked, key, dists[walked])
		}
		walked++
		return true
	})
	if walked != len(m) {
		t.Fatalf("walk yielded %d entries, model has %d", walked, len(m))
	}
}

func lInf(a, b [4]float64) float64 {
	max := 0.0
	for d := 0; d < 4; d++ {
		if g := math.Abs(a[d] - b[d]); g > max {
			max = g
		}
	}
	return max
}

// TestInsertDeleteMergeAgainstModel drives random inserts, deletes (of
// snapshot entries: tombstones; of delta adds: removed outright),
// re-inserts of tombstoned entries, merges, saves and reloads against the
// model. A Save folds the delta into the slab first, so a Load brings back
// the same entries with an empty delta.
func TestInsertDeleteMergeAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	opts := Options{MergeThreshold: -1} // merge only when the test says so
	path := filepath.Join(t.TempDir(), "feature.flat")
	x := New(opts)
	m := model{}
	pool := randEntries(rng, 400)
	saves, savedDeltas := 0, 0
	for step := 0; step < 4000; step++ {
		e := pool[rng.Intn(len(pool))]
		switch op := rng.Intn(40); {
		case op < 24:
			x.Insert(e)
			m[e] = struct{}{}
		case op < 36:
			_, want := m[e]
			if got := x.Delete(e); got != want {
				t.Fatalf("step %d: Delete(%d)=%v, model says %v", step, e.ID, got, want)
			}
			delete(m, e)
		case op < 38:
			x.Merge()
			if x.DeltaEntries() != 0 {
				t.Fatalf("step %d: delta non-empty after Merge", step)
			}
		default:
			if x.DeltaEntries() > 0 {
				savedDeltas++
			}
			if err := x.Save(path); err != nil {
				t.Fatal(err)
			}
			if x.DeltaEntries() != 0 {
				t.Fatalf("step %d: delta non-empty after Save", step)
			}
			saves++
			if op == 39 {
				y, err := Load(path, opts)
				if err != nil {
					t.Fatalf("step %d: Load: %v", step, err)
				}
				if y.DeltaEntries() != 0 || y.Generation() != x.Generation() {
					t.Fatalf("step %d: loaded delta=%d generation=%d, saved 0/%d",
						step, y.DeltaEntries(), y.Generation(), x.Generation())
				}
				x = y
				checkAgainstModel(t, x, m, rng)
			}
		}
		if step%500 == 0 {
			checkAgainstModel(t, x, m, rng)
		}
	}
	checkAgainstModel(t, x, m, rng)
	if saves == 0 || savedDeltas == 0 {
		t.Fatalf("%d saves, %d of a non-empty delta: the schedule never exercised the file", saves, savedDeltas)
	}
}

func TestInsertSetSemantics(t *testing.T) {
	x := New(Options{MergeThreshold: -1})
	e := Entry{ID: 1, Point: [4]float64{1, 2, 3, 4}}
	x.Insert(e)
	x.Insert(e) // duplicate add is a no-op
	if x.Len() != 1 {
		t.Fatalf("Len=%d after duplicate insert", x.Len())
	}
	x.Merge()
	x.Insert(e) // already in snapshot: no-op
	if x.Len() != 1 || x.DeltaEntries() != 0 {
		t.Fatalf("Len=%d delta=%d after insert of snapshot entry", x.Len(), x.DeltaEntries())
	}
	if !x.Delete(e) {
		t.Fatal("Delete of snapshot entry returned false")
	}
	if x.Len() != 0 || x.DeltaEntries() != 1 {
		t.Fatalf("Len=%d delta=%d after tombstone", x.Len(), x.DeltaEntries())
	}
	x.Insert(e) // resurrect: clears the tombstone, no delta add
	if x.Len() != 1 || x.DeltaEntries() != 0 {
		t.Fatalf("Len=%d delta=%d after resurrect", x.Len(), x.DeltaEntries())
	}
	if !x.Contains(e) {
		t.Fatal("resurrected entry not found")
	}
}

func TestBackgroundMergeTriggers(t *testing.T) {
	x := New(Options{MergeThreshold: 8})
	rng := rand.New(rand.NewSource(59))
	for _, e := range randEntries(rng, 64) {
		x.Insert(e)
	}
	if err := x.Close(); err != nil { // waits for in-flight merges
		t.Fatal(err)
	}
	if x.Merges() == 0 {
		t.Fatal("no background merge ran despite threshold 8 and 64 inserts")
	}
	if x.Len() != 64 {
		t.Fatalf("Len=%d after merges, want 64", x.Len())
	}
	if gen := x.Generation(); gen == 0 {
		t.Fatal("generation never advanced")
	}
	if x.MergeHist().Count() != x.Merges() {
		t.Fatalf("merge histogram count %d != merges %d", x.MergeHist().Count(), x.Merges())
	}
}

func TestNearestWalkAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	x := New(Options{MergeThreshold: -1})
	entries := randEntries(rng, 500)
	// Half via bulk snapshot, a quarter live in the delta, a quarter deleted.
	if err := x.BulkLoad(entries[:250]); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries[250:375] {
		x.Insert(e)
	}
	live := append([]Entry(nil), entries[:125]...)
	live = append(live, entries[250:375]...)
	for _, e := range entries[125:250] {
		if !x.Delete(e) {
			t.Fatalf("Delete(%d) failed", e.ID)
		}
	}
	for trial := 0; trial < 20; trial++ {
		var p [4]float64
		for d := 0; d < 4; d++ {
			p[d] = rng.NormFloat64() * 10
		}
		var got []float64
		x.NearestWalk(&p, func(e Entry, dist float64) bool {
			want := 0.0
			for d := 0; d < 4; d++ {
				g := e.Point[d] - p[d]
				if g < 0 {
					g = -g
				}
				if g > want {
					want = g
				}
			}
			if dist != want {
				t.Fatalf("walk dist %g for entry %d, exact L∞ is %g", dist, e.ID, want)
			}
			got = append(got, dist)
			return len(got) < 40
		})
		if len(got) != 40 {
			t.Fatalf("walk yielded %d entries", len(got))
		}
		for i := 1; i < len(got); i++ {
			if got[i] < got[i-1] {
				t.Fatalf("walk order violated at %d: %g < %g", i, got[i], got[i-1])
			}
		}
		// The walk's prefix must be the true k smallest distances.
		dists := make([]float64, len(live))
		for i, e := range live {
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
			dists[i] = max
		}
		for i := 0; i < len(dists); i++ {
			for j := i + 1; j < len(dists); j++ {
				if dists[j] < dists[i] {
					dists[i], dists[j] = dists[j], dists[i]
				}
			}
		}
		for i := range got {
			if got[i] != dists[i] {
				t.Fatalf("trial %d: walk dist[%d]=%g, brute force says %g", trial, i, got[i], dists[i])
			}
		}
	}
}

func TestSaveLoadRoundtripAndCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	dir := t.TempDir()
	path := filepath.Join(dir, "feature.flat")
	x := New(Options{MergeThreshold: -1})
	entries := randEntries(rng, 300)
	if err := x.BulkLoad(entries[:200]); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries[200:] {
		x.Insert(e)
	}
	if err := x.Save(path); err != nil {
		t.Fatal(err)
	}
	if x.DeltaEntries() != 0 || x.Merges() != 1 {
		t.Fatalf("Save did not fold the delta in: delta=%d merges=%d, want 0/1", x.DeltaEntries(), x.Merges())
	}

	y, err := Load(path, Options{MergeThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	if y.Len() != 300 || y.DeltaEntries() != 0 || y.Generation() != x.Generation() {
		t.Fatalf("loaded Len=%d delta=%d gen=%d, want 300/0/%d", y.Len(), y.DeltaEntries(), y.Generation(), x.Generation())
	}
	got := y.Entries(nil)
	want := x.Entries(nil)
	sortEntries(got)
	sortEntries(want)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("loaded entry %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	// Same mode as the database's other files (a hand-rolled CreateTemp
	// left this one 0600).
	if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o644 {
		t.Fatalf("snapshot file mode = %v (err %v), want 0644", fi.Mode().Perm(), err)
	}

	// A flipped byte must fail the CRC.
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0x40
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path, Options{}); err == nil {
		t.Fatal("corrupt snapshot file loaded without error")
	}
	// Truncation too.
	if err := os.WriteFile(path, buf[:10], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path, Options{}); err == nil {
		t.Fatal("truncated snapshot file loaded without error")
	}
}

func TestBulkLoadRequiresEmpty(t *testing.T) {
	x := New(Options{MergeThreshold: -1})
	x.Insert(Entry{ID: 1})
	if err := x.BulkLoad([]Entry{{ID: 2}}); err == nil {
		t.Fatal("BulkLoad into non-empty index succeeded")
	}
}

// TestPutAgainstModel: Put packs the slab only into an index that holds
// nothing at all, and otherwise takes the batch into the delta by Insert's
// rules (duplicates ignored, tombstones cleared) — including after every
// entry was deleted, when the slab's tombstones are still unmerged.
func TestPutAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	x := New(Options{MergeThreshold: -1})
	m := model{}
	pool := randEntries(rng, 300)
	x.Put(pool[:100])
	for _, e := range pool[:100] {
		m[e] = struct{}{}
	}
	if x.DeltaEntries() != 0 || x.Generation() != 1 {
		t.Fatalf("Put into an empty index: delta %d, generation %d; want a packed slab", x.DeltaEntries(), x.Generation())
	}
	checkAgainstModel(t, x, m, rng)
	for _, e := range pool[:100] {
		x.Delete(e)
		delete(m, e)
	}
	x.Put(pool[100:110])
	for _, e := range pool[100:110] {
		m[e] = struct{}{}
	}
	if x.DeltaEntries() != 110 || x.Generation() != 1 {
		t.Fatalf("Put over 100 tombstones: delta %d, generation %d; want 100 tombstones + 10 adds in generation 1", x.DeltaEntries(), x.Generation())
	}
	checkAgainstModel(t, x, m, rng)
	for step := 0; step < 300; step++ {
		switch op := rng.Intn(10); {
		case op < 6:
			batch := make([]Entry, rng.Intn(8))
			for i := range batch {
				batch[i] = pool[rng.Intn(len(pool))]
				m[batch[i]] = struct{}{}
			}
			x.Put(batch)
		case op < 9:
			e := pool[rng.Intn(len(pool))]
			_, want := m[e]
			if got := x.Delete(e); got != want {
				t.Fatalf("step %d: Delete(%d)=%v, model says %v", step, e.ID, got, want)
			}
			delete(m, e)
		default:
			x.Merge()
		}
		if step%50 == 0 {
			checkAgainstModel(t, x, m, rng)
		}
	}
	checkAgainstModel(t, x, m, rng)
}
