package twsim

import (
	"math"
	"testing"

	"repro/internal/dtw"
	"repro/internal/seq"
)

// poisonDB builds a database holding finite sequences plus one NaN-bearing
// sequence smuggled past the Add-time validation, the way the seed accepted
// it: straight into the heap and the feature index.
func poisonDB(t *testing.T) (*DB, ID) {
	t.Helper()
	db, err := OpenMem(Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	for _, s := range [][]float64{{5, 6, 7}, {-3, -2, -1}, {10, 10, 10}} {
		if _, err := db.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	poisoned := seq.Sequence{math.NaN(), 1}
	id, err := db.store.Append(poisoned)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.index.Insert(id, poisoned); err != nil {
		t.Fatal(err)
	}
	return db, ID(id)
}

// TestNaNPoisonDivergence is the regression test for the headline bug: in
// the seed, Add accepted sequences containing NaN, and the price was
// provably-exact methods silently returning different answers — the
// paper's Theorem 1 equivalence broken without any error surfacing.
//
// The witness: store S = [NaN, 1] and query Q = [1]. NaN loses every
// ordered float comparison. A DP kernel built from `if best > e`-style
// branches once let it slip through as if it were −∞, so DB.Distance
// evaluated Dtw(S, Q) to 0 while every search rejected S. DB.Distance, the
// index search and Naive-Scan now all run dtw.Refiner, which holds cells as
// bit patterns where a NaN orders above +Inf: the NaN row has no alive cell,
// so all three read NaN as +∞ and agree that S is not a match. The reference
// DP, dtw.Distance, combines with math.Max, which propagates the NaN: it
// answers NaN, a third reading, which is why the state must not exist.
//
// That state is unreachable through the public API (Add and friends return
// ErrNonFinite; see TestNonFiniteRejected) and — should it arise anyway via
// on-disk corruption — Verify and CheckInvariants both flag it instead of
// staying silent.
func TestNaNPoisonDivergence(t *testing.T) {
	db, id := poisonDB(t)
	q := []float64{1}
	const eps = 0.5

	if d := dtw.Distance(seq.Sequence{math.NaN(), 1}, q, seq.LInf); !math.IsNaN(d) {
		t.Fatalf("reference Dtw = %g for the poisoned pair, want NaN (math.Max propagates it)", d)
	}

	// The system's own exact distance reads the NaN as +∞, as the searches do.
	d, err := db.Distance(id, q)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(d, 1) {
		t.Fatalf("DB.Distance = %g for the poisoned pair, want +Inf, the verdict the searches reach", d)
	}

	// Neither exact search method returns it.
	res, err := db.Search(q, eps)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.Matches {
		if m.ID == id {
			t.Fatalf("index search matched the poisoned sequence (%+v), but DB.Distance says +Inf", m)
		}
	}
	naive, err := db.BaselineNaiveScan().Search(q, eps)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range naive.Matches {
		if m.ID == id {
			t.Fatalf("naive scan matched the poisoned sequence (%+v), but DB.Distance says +Inf", m)
		}
	}

	// The integrity checkers must refuse to bless the poisoned state.
	if err := db.Verify(); err == nil {
		t.Error("Verify passed on a database with a NaN-poisoned sequence")
	}
	if err := db.CheckInvariants(); err == nil {
		t.Error("CheckInvariants passed on an index with a NaN feature entry")
	}
}

// TestNonFiniteRecordDecidedAsRefiner: records holding NaN or ±Inf,
// smuggled past validation the way poisonDB does it, get the refiner's
// verdict from the unbanded L∞ decision at every tolerance, +Inf included.
// [1, NaN, 1] keeps a finite feature (NaN loses the min/max comparisons), so
// the index admits it and the search's decision must reject it — counted as
// the corridor prune the refiner would have made.
func TestNonFiniteRecordDecidedAsRefiner(t *testing.T) {
	db, nanID := poisonDB(t)
	ids := []seq.ID{seq.ID(nanID)}
	for _, s := range []seq.Sequence{{1, math.NaN(), 1}, {1, math.Inf(1), 1}, {1, math.Inf(-1), 1}} {
		id, err := db.store.Append(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.index.Insert(id, s); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	q := seq.Sequence{1, 1}
	d := dtw.AcquireDecider(q)
	defer d.Release()
	r := dtw.AcquireRefiner()
	defer r.Release()
	for _, id := range ids {
		s, err := db.store.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, eps := range []float64{0, 0.5, 1e300, math.Inf(1)} {
			_, v := r.DistanceWithin(s, q, seq.LInf, eps)
			if got := d.Within(s, eps); got != (v == dtw.VerdictWithin) {
				t.Fatalf("record %v eps %v: decision %v, refiner verdict %d", s, eps, got, v)
			}
		}
	}

	res, err := db.Search(q, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.Matches {
		for _, id := range ids {
			if m.ID == ID(id) {
				t.Fatalf("search matched non-finite record %d (%+v)", id, m)
			}
		}
	}
	if st := res.Stats; st.CorridorPruned == 0 || st.CorridorPruned+st.DTWCalls != st.Candidates {
		t.Fatalf("[1, NaN, 1] was not a corridor prune: %+v", st)
	}
}
