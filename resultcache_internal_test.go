package twsim

import (
	"errors"
	"testing"

	"repro/internal/seq"
	"repro/internal/wal"
)

// The result cache keeps an entry across a write only when the write
// cannot change the answer (DESIGN.md §13.2). Each test below pins one rule
// on a small corpus of exact values, with the WAL off and on, and holds
// every answer, hit or not, to a recompute that bypasses the cache.

// revalCorpus is twenty short records [v, v+0.5, v] for v = 0 … 19, and
// revalQuery is the one for v = 3: under L∞ its distance to the record for
// v is |v − 3|, so at ε 1 the range answer is v ∈ {2, 3, 4} and its
// 3-NN answer is the same three records with a k-th distance of 1.
func revalCorpus() [][]float64 {
	data := make([][]float64, 20)
	for v := range data {
		data[v] = []float64{float64(v), float64(v) + 0.5, float64(v)}
	}
	return data
}

var revalQuery = []float64{3, 3.5, 3}

// eachWALMode runs body on a populated cached database with the WAL off
// (in memory) and on (on disk), handing it the IDs of revalCorpus.
func eachWALMode(t *testing.T, body func(t *testing.T, db *DB, ids []ID)) {
	for _, mode := range []string{"wal_off", "wal_on"} {
		t.Run(mode, func(t *testing.T) {
			opts := Options{ResultCacheBytes: 1 << 20}
			var (
				db  *DB
				err error
			)
			if mode == "wal_on" {
				opts.WAL = true
				db, err = Create(t.TempDir(), opts)
			} else {
				db, err = OpenMem(opts)
			}
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			first, err := db.AddAll(revalCorpus())
			if err != nil {
				t.Fatal(err)
			}
			ids := make([]ID, 20)
			for i := range ids {
				ids[i] = first + ID(i)
			}
			body(t, db, ids)
		})
	}
}

// searchAgainst runs a cached range query and requires its answer to
// equal the searcher's recompute (which bypasses the cache) bit for bit
// and its CacheHit to be wantHit.
func searchAgainst(t *testing.T, db *DB, what string, q []float64, eps float64, band int, wantHit bool) []Match {
	t.Helper()
	res, err := db.SearchCtx(nil, q, eps, band)
	if err != nil {
		t.Fatal(err)
	}
	db.mu.RLock()
	fresh, err := db.searcher(nil, band).Search(seq.Sequence(q), eps)
	db.mu.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	sameMatchBits(t, what, res.Matches, fresh.Matches)
	if res.CacheHit != wantHit {
		t.Fatalf("%s: CacheHit = %v, want %v", what, res.CacheHit, wantHit)
	}
	return res.Matches
}

// knnAgainst is searchAgainst for the k-NN door, against the searcher run
// without the cache.
func knnAgainst(t *testing.T, db *DB, what string, q []float64, k int, wantHit bool) []Match {
	t.Helper()
	res, err := db.NearestKCtx(nil, q, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	db.mu.RLock()
	fresh, _, err := db.searcher(nil, 0).NearestKSharedStats(seq.Sequence(q), k, nil)
	db.mu.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	sameMatchBits(t, what, res.Matches, fresh)
	if res.CacheHit != wantHit {
		t.Fatalf("%s: CacheHit = %v, want %v", what, res.CacheHit, wantHit)
	}
	return res.Matches
}

func mustAdd(t *testing.T, db *DB, values []float64) ID {
	t.Helper()
	id, err := db.Add(values)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func mustRemove(t *testing.T, db *DB, id ID) {
	t.Helper()
	if ok, err := db.Remove(id); !ok || err != nil {
		t.Fatalf("Remove(%d) = %v, %v", id, ok, err)
	}
}

func hasID(ms []Match, id ID) bool {
	for _, m := range ms {
		if m.ID == id {
			return true
		}
	}
	return false
}

// An add whose Dtw-lb exceeds ε keeps the range entry (served as a
// revalidated hit); an add within ε drops it, and the recompute holds the
// new record.
func TestResultCacheRevalidationRangeAdd(t *testing.T) {
	eachWALMode(t, func(t *testing.T, db *DB, ids []ID) {
		searchAgainst(t, db, "cold", revalQuery, 1, 0, false)
		searchAgainst(t, db, "warm", revalQuery, 1, 0, true)
		mustAdd(t, db, []float64{3, 3.5, 5}) // last element 2 away: LB_Kim 2 > 1
		mustAdd(t, db, []float64{-40, 60})
		searchAgainst(t, db, "after two adds outside ε", revalQuery, 1, 0, true)
		if st := db.ResultCacheStats(); st.Revalidations != 1 || st.Invalidations != 0 {
			t.Fatalf("stats %+v, want 1 revalidation and 0 invalidations", st)
		}
		// The same holds for a banded entry: BandDistance ≥ Dtw.
		searchAgainst(t, db, "banded cold", revalQuery, 1, 1, false)
		mustAdd(t, db, []float64{100})
		searchAgainst(t, db, "banded after an add outside ε", revalQuery, 1, 1, true)

		in := mustAdd(t, db, []float64{3.5, 4, 3.5}) // distance 0.5
		ms := searchAgainst(t, db, "after an add within ε", revalQuery, 1, 0, false)
		if !hasID(ms, in) {
			t.Fatalf("the added record %d is missing from %+v", in, ms)
		}
		if st := db.ResultCacheStats(); st.Invalidations != 1 {
			t.Fatalf("stats %+v, want 1 invalidation", st)
		}
		searchAgainst(t, db, "rewarmed", revalQuery, 1, 0, true)
	})
}

// Removing a record that is not a match keeps the entry; removing a match
// drops it.
func TestResultCacheRevalidationRemove(t *testing.T) {
	eachWALMode(t, func(t *testing.T, db *DB, ids []ID) {
		searchAgainst(t, db, "cold", revalQuery, 1, 0, false)
		knnAgainst(t, db, "knn cold", revalQuery, 3, false)
		mustRemove(t, db, ids[10])
		searchAgainst(t, db, "after removing a non-member", revalQuery, 1, 0, true)
		knnAgainst(t, db, "knn after removing a non-member", revalQuery, 3, true)
		mustRemove(t, db, ids[2])
		ms := searchAgainst(t, db, "after removing a member", revalQuery, 1, 0, false)
		if hasID(ms, ids[2]) {
			t.Fatalf("the removed record %d is still in %+v", ids[2], ms)
		}
		ms = knnAgainst(t, db, "knn after removing a member", revalQuery, 3, false)
		if hasID(ms, ids[2]) || !hasID(ms, ids[1]) && !hasID(ms, ids[5]) {
			t.Fatalf("3-NN after removing %d: %+v", ids[2], ms)
		}
	})
}

// A k-NN entry that holds k matches is kept across an add whose Dtw-lb is
// above its k-th distance and dropped by one at or below it — a tie too,
// though the tie's larger ID would leave the answer as it is. An entry with
// fewer than k matches takes any new record in, so any add drops it.
func TestResultCacheRevalidationKNN(t *testing.T) {
	eachWALMode(t, func(t *testing.T, db *DB, ids []ID) {
		ms := knnAgainst(t, db, "cold", revalQuery, 3, false)
		if len(ms) != 3 || ms[2].Dist != 1 {
			t.Fatalf("3-NN = %+v, want three matches with a k-th distance of 1", ms)
		}
		mustAdd(t, db, []float64{5.5, 6, 5.5}) // LB_Kim 2.5 > 1
		knnAgainst(t, db, "after an add above the k-th distance", revalQuery, 3, true)
		mustAdd(t, db, []float64{4, 4.5, 4}) // LB_Kim 1: a tie
		knnAgainst(t, db, "after an add at the k-th distance", revalQuery, 3, false)
		in := mustAdd(t, db, []float64{3.25, 3.75, 3.25}) // LB_Kim 0.25
		ms = knnAgainst(t, db, "after an add below the k-th distance", revalQuery, 3, false)
		if !hasID(ms, in) {
			t.Fatalf("the added record %d is missing from %+v", in, ms)
		}

		all := knnAgainst(t, db, "short answer cold", revalQuery, 100, false)
		if len(all) >= 100 {
			t.Fatalf("%d matches, want fewer than k", len(all))
		}
		mustAdd(t, db, []float64{1e6})
		all = knnAgainst(t, db, "short answer after a far add", revalQuery, 100, false)
		if all[len(all)-1].Dist != 1e6-3 {
			t.Fatalf("the far record is not last in %+v", all)
		}
	})
}

// A write the cache has no note for — Repair, and the undo of an add the
// WAL refused — drops every entry stamped before it, even where the writes
// around it are noted and harmless.
func TestResultCacheRevalidationUnnotedWrites(t *testing.T) {
	eachWALMode(t, func(t *testing.T, db *DB, ids []ID) {
		searchAgainst(t, db, "cold", revalQuery, 1, 0, false)
		if _, err := db.Repair(); err != nil {
			t.Fatal(err)
		}
		searchAgainst(t, db, "after Repair", revalQuery, 1, 0, false)
		if _, err := db.Repair(); err != nil {
			t.Fatal(err)
		}
		mustAdd(t, db, []float64{-50})
		searchAgainst(t, db, "after Repair and a far add", revalQuery, 1, 0, false)
		mustAdd(t, db, []float64{-60})
		searchAgainst(t, db, "after a far add", revalQuery, 1, 0, true)

		if db.wal == nil {
			return
		}
		if err := db.wal.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Add([]float64{-70}); !errors.Is(err, wal.ErrClosed) {
			t.Fatalf("Add with the log closed: %v, want wal.ErrClosed", err)
		}
		searchAgainst(t, db, "after a refused far add", revalQuery, 1, 0, false)
	})
}

// The log holds about 4 096 features and IDs. A batch larger than that
// drops every older entry, and so do batches that together push the notes
// after an entry's stamp out of the log; a large batch that fits keeps it.
func TestResultCacheRevalidationLogOverflow(t *testing.T) {
	far := func(n int) [][]float64 {
		out := make([][]float64, n)
		for i := range out {
			out[i] = []float64{1000 + float64(i), 2000}
		}
		return out
	}
	eachWALMode(t, func(t *testing.T, db *DB, ids []ID) {
		searchAgainst(t, db, "cold", revalQuery, 1, 0, false)
		if _, err := db.AddAll(far(3000)); err != nil {
			t.Fatal(err)
		}
		searchAgainst(t, db, "after a 3 000-record far batch", revalQuery, 1, 0, true)
		if _, err := db.AddAll(far(5000)); err != nil {
			t.Fatal(err)
		}
		searchAgainst(t, db, "after a 5 000-record far batch", revalQuery, 1, 0, false)
		knnAgainst(t, db, "knn cold", revalQuery, 3, false)
		if _, err := db.AddAll(far(3000)); err != nil {
			t.Fatal(err)
		}
		if _, err := db.AddAll(far(2000)); err != nil {
			t.Fatal(err)
		}
		knnAgainst(t, db, "knn after 3 000 + 2 000 far records", revalQuery, 3, false)
	})
}
