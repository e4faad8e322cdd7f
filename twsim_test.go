package twsim_test

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	twsim "repro"
	"repro/internal/dtw"
)

func randomWalks(seed int64, count, minLen, maxLen int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, count)
	for i := range out {
		n := minLen + rng.Intn(maxLen-minLen+1)
		s := make([]float64, n)
		s[0] = 1 + 9*rng.Float64()
		for j := 1; j < n; j++ {
			s[j] = s[j-1] + rng.Float64()*0.2 - 0.1
		}
		out[i] = s
	}
	return out
}

func TestOpenMemAddSearch(t *testing.T) {
	db, err := twsim.OpenMem(twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	// The paper's §1 example pair: identical under warping.
	s := []float64{20, 21, 21, 20, 20, 23, 23, 23}
	q := []float64{20, 20, 21, 20, 23}
	id, err := db.Add(s)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Search(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 1 || res.Matches[0].ID != id || res.Matches[0].Dist != 0 {
		t.Fatalf("Search = %+v", res.Matches)
	}
}

func TestSearchMatchesNaiveScan(t *testing.T) {
	db, err := twsim.OpenMem(twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	data := randomWalks(1, 150, 10, 40)
	if _, err := db.AddAll(data); err != nil {
		t.Fatal(err)
	}
	naive := db.BaselineNaiveScan()
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		q := data[rng.Intn(len(data))]
		eps := rng.Float64()
		want, err := naive.Search(q, eps)
		if err != nil {
			t.Fatal(err)
		}
		got, err := db.Search(q, eps)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Matches) != len(want.Matches) {
			t.Fatalf("trial %d: %d matches, naive %d", trial, len(got.Matches), len(want.Matches))
		}
		for i := range got.Matches {
			if got.Matches[i].ID != want.Matches[i].ID {
				t.Fatalf("trial %d: id mismatch at %d", trial, i)
			}
		}
	}
}

func TestAllBaselinesAgree(t *testing.T) {
	db, err := twsim.OpenMem(twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	data := randomWalks(3, 80, 8, 25)
	if _, err := db.AddAll(data); err != nil {
		t.Fatal(err)
	}
	stf, err := db.BaselineSTFilter(25)
	if err != nil {
		t.Fatal(err)
	}
	searchers := []twsim.Searcher{
		db.BaselineNaiveScan(),
		db.BaselineLBScan(),
		stf,
		db.TWSimSearcher(),
	}
	q := data[7]
	const eps = 0.3
	var want []twsim.ID
	for i, s := range searchers {
		res, err := s.Search(q, eps)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		ids := res.IDs()
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		if i == 0 {
			want = ids
			if len(want) == 0 {
				t.Fatal("query matched nothing; test needs a self-match")
			}
			continue
		}
		if len(ids) != len(want) {
			t.Fatalf("%s: %d matches, want %d", s.Name(), len(ids), len(want))
		}
		for j := range ids {
			if ids[j] != want[j] {
				t.Fatalf("%s: mismatch at %d", s.Name(), j)
			}
		}
	}
}

func TestFastMapBaselineIsSubset(t *testing.T) {
	db, err := twsim.OpenMem(twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	data := randomWalks(4, 60, 8, 20)
	if _, err := db.AddAll(data); err != nil {
		t.Fatal(err)
	}
	fm, err := db.BaselineFastMap(3, 9)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := db.Search(data[5], 0.4)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := fm.Search(data[5], 0.4)
	if err != nil {
		t.Fatal(err)
	}
	truthSet := map[twsim.ID]bool{}
	for _, m := range truth.Matches {
		truthSet[m.ID] = true
	}
	for _, m := range approx.Matches {
		if !truthSet[m.ID] {
			t.Errorf("FastMap returned non-answer %d", m.ID)
		}
	}
}

func TestNearestK(t *testing.T) {
	db, err := twsim.OpenMem(twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	data := randomWalks(5, 100, 10, 30)
	if _, err := db.AddAll(data); err != nil {
		t.Fatal(err)
	}
	q := data[11]
	got, err := db.NearestK(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("NearestK returned %d", len(got))
	}
	// Brute force.
	dists := make([]float64, len(data))
	for i, s := range data {
		dists[i] = dtw.Distance(s, q, twsim.BaseLInf)
	}
	sort.Float64s(dists)
	for i := range got {
		if math.Abs(got[i].Dist-dists[i]) > 1e-12 {
			t.Fatalf("pos %d: %g, want %g", i, got[i].Dist, dists[i])
		}
	}
	if got[0].ID != 11 || got[0].Dist != 0 {
		t.Errorf("nearest is not the query's source: %+v", got[0])
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db, err := twsim.Create(dir, twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	data := randomWalks(6, 50, 10, 25)
	if _, err := db.AddAll(data); err != nil {
		t.Fatal(err)
	}
	truth, err := db.Search(data[3], 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := twsim.Open(dir, twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Len() != 50 {
		t.Fatalf("reopened Len = %d", db2.Len())
	}
	if err := db2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	res, err := db2.Search(data[3], 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != len(truth.Matches) {
		t.Fatalf("after reopen: %d matches, want %d", len(res.Matches), len(truth.Matches))
	}
	got, err := db2.Get(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != data[3][i] {
			t.Fatal("Get after reopen corrupted")
		}
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := twsim.Open(t.TempDir(), twsim.Options{}); err == nil {
		t.Error("Open of empty directory succeeded")
	}
}

func TestInputValidation(t *testing.T) {
	db, err := twsim.OpenMem(twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Add(nil); err == nil {
		t.Error("Add(nil) accepted")
	}
	if _, err := db.AddAll(nil); err == nil {
		t.Error("AddAll(nil) accepted")
	}
	if _, err := db.Search(nil, 1); err == nil {
		t.Error("Search with empty query accepted")
	}
	if _, err := db.Search([]float64{1}, -1); err == nil {
		t.Error("negative tolerance accepted")
	}
	if _, err := db.NearestK(nil, 3); err == nil {
		t.Error("NearestK with empty query accepted")
	}
	if _, err := db.Get(99); err == nil {
		t.Error("Get of unknown id accepted")
	}
}

func TestDistanceHelpers(t *testing.T) {
	s := []float64{20, 21, 21, 20, 20, 23, 23, 23}
	q := []float64{20, 20, 21, 20, 23}
	if d := twsim.Distance(s, q, twsim.BaseLInf); d != 0 {
		t.Errorf("Distance = %g", d)
	}
	if d, ok := twsim.DistanceWithin(s, q, twsim.BaseLInf, 0.5); !ok || d != 0 {
		t.Errorf("DistanceWithin = %g, %v", d, ok)
	}
	if lb := twsim.LowerBound(s, q); lb > 0 {
		t.Errorf("LowerBound = %g", lb)
	}
	if lb := twsim.LowerBoundYi(s, q, twsim.BaseLInf); lb > 0 {
		t.Errorf("LowerBoundYi = %g", lb)
	}
	d, path := twsim.WarpingPath(s, q, twsim.BaseLInf)
	if d != 0 || len(path) == 0 {
		t.Errorf("WarpingPath = %g, %d steps", d, len(path))
	}
	if bd := twsim.BandDistance(s, q, twsim.BaseLInf, 1000); bd != 0 {
		t.Errorf("BandDistance = %g", bd)
	}
	first, last, greatest, smallest, err := twsim.Feature(s)
	if err != nil || first != 20 || last != 23 || greatest != 23 || smallest != 20 {
		t.Errorf("Feature = %g %g %g %g, %v", first, last, greatest, smallest, err)
	}
	if _, _, _, _, err := twsim.Feature(nil); err == nil {
		t.Error("Feature(nil) accepted")
	}
}

func TestDBDistanceAndAccessors(t *testing.T) {
	db, err := twsim.OpenMem(twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	id, err := db.Add([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	d, err := db.Distance(id, []float64{1, 2, 4})
	if err != nil || d != 1 {
		t.Errorf("Distance = %g, %v", d, err)
	}
	if db.DataBytes() == 0 {
		t.Error("DataBytes = 0")
	}
	if db.IndexPages() == 0 {
		t.Error("IndexPages = 0")
	}
}

func TestAddAfterBulk(t *testing.T) {
	db, err := twsim.OpenMem(twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.AddAll(randomWalks(7, 30, 5, 15)); err != nil {
		t.Fatal(err)
	}
	// AddAll on a non-empty database takes the incremental path.
	if _, err := db.AddAll([][]float64{{5, 5, 5}, {6, 6}}); err != nil {
		t.Fatal(err)
	}
	if db.Len() != 32 {
		t.Errorf("Len = %d", db.Len())
	}
	res, err := db.Search([]float64{5, 5}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range res.Matches {
		if m.ID == 30 {
			found = true
		}
	}
	if !found {
		t.Error("incrementally added sequence not searchable")
	}
}

// TestGetResultIsCallersOwn: what Get returns belongs to the caller — a
// caller that overwrites it changes nothing the database later reads by ID,
// measures, or searches, and no later read writes into it — on an in-memory
// and on a file-backed database (where an older record is read past the
// pool and the newest through it).
func TestGetResultIsCallersOwn(t *testing.T) {
	data := randomWalks(23, 40, 8, 30)
	mem, err := twsim.OpenMem(twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	file, err := twsim.Create(t.TempDir(), twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, db := range map[string]*twsim.DB{"mem": mem, "file": file} {
		t.Run(name, func(t *testing.T) {
			defer db.Close()
			if _, err := db.AddBatch(data); err != nil {
				t.Fatal(err)
			}
			for _, id := range []twsim.ID{3, twsim.ID(len(data) - 1)} {
				want := data[id]
				kept, err := db.Get(id)
				if err != nil {
					t.Fatal(err)
				}
				got, err := db.Get(id)
				if err != nil {
					t.Fatal(err)
				}
				for i := range got {
					got[i] = math.Inf(-1)
				}
				again, err := db.Get(id)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(again, want) {
					t.Fatalf("id %d: Get after the caller overwrote an earlier result = %v, want %v", id, again, want)
				}
				if d, err := db.Distance(id, want); err != nil || d != 0 {
					t.Fatalf("id %d: Distance to its own values = %g, %v; want 0", id, d, err)
				}
				res, err := db.Search(want, 0)
				if err != nil {
					t.Fatal(err)
				}
				found := false
				for _, m := range res.Matches {
					found = found || (m.ID == id && m.Dist == 0)
				}
				if !found {
					t.Fatalf("id %d: a range query at its own values no longer finds it: %+v", id, res.Matches)
				}
				// The other direction: nothing the database read since — other
				// IDs included — wrote into a result it had handed out.
				if _, err := db.Get(id - 1); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(kept, want) {
					t.Fatalf("id %d: a result of Get changed under later reads: %v, want %v", id, kept, want)
				}
			}
		})
	}
}
