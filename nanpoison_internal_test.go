package twsim

import (
	"math"
	"testing"

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
// ordered float comparison, so it slips through the dense L∞ kernel's
// `if best > e`-style max as if it were −∞: dtw.Distance drops the NaN
// path cost and evaluates Dtw(S, Q) to the finite value 0. Every search
// path reaches the opposite verdict. The refine tier (dtw.Refiner) holds
// cells as bit patterns, where a NaN orders above +Inf, so the NaN row has
// no alive cell and S is corridor-pruned; the early-abandoning kernel of
// the sequential-scan baseline finds no cell testing ≤ ε in that row and
// abandons S too (NaN acting like +∞ both times). Same database, same
// query, same ε: the exact distance says S matches at 0, no search returns
// it.
//
// With the fix, that state is unreachable through the public API (Add and
// friends return ErrNonFinite; see TestNonFiniteRejected) and — should it
// arise anyway via on-disk corruption — Verify and CheckInvariants both
// flag it instead of staying silent.
func TestNaNPoisonDivergence(t *testing.T) {
	db, id := poisonDB(t)
	q := []float64{1}
	const eps = 0.5

	// The system's own exact distance says S is a match at distance 0.
	d, err := db.Distance(id, q)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Fatalf("exact Dtw = %g for the poisoned pair, want 0; the witness no longer exercises the bug", d)
	}

	// Neither exact search method returns it: no error, just a different
	// answer than Distance gave for identical inputs.
	res, err := db.Search(q, eps)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.Matches {
		if m.ID == id {
			t.Fatalf("index search matched the poisoned sequence (%+v); the refiner's NaN order changed — update this test's direction, not its existence", m)
		}
	}
	naive, err := db.BaselineNaiveScan().Search(q, eps)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range naive.Matches {
		if m.ID == id {
			t.Fatalf("naive scan matched the poisoned sequence (%+v) — the exact and abandoning kernels now agree on NaN; update this test", m)
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
