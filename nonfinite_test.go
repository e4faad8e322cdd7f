package twsim_test

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	twsim "repro"
)

// poisons covers every non-finite value class the validation must reject.
var poisons = []struct {
	name string
	v    float64
}{
	{"NaN", math.NaN()},
	{"+Inf", math.Inf(1)},
	{"-Inf", math.Inf(-1)},
}

// TestNonFiniteRejected: every write and query entry point, on both the
// single and the sharded engine, refuses sequences containing NaN or ±Inf
// with an error wrapping twsim.ErrNonFinite, and a failed batch write
// inserts nothing. A non-finite element would otherwise poison the index
// silently: the R-tree range query can never reach a NaN feature, so the
// sequence becomes invisible to index searches while a linear scan may
// still match it (see TestNaNPoisonDivergence).
func TestNonFiniteRejected(t *testing.T) {
	backends := []struct {
		name string
		open func(t *testing.T) twsim.Backend
	}{
		{"single", func(t *testing.T) twsim.Backend {
			db, err := twsim.OpenMem(twsim.Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { db.Close() })
			return db
		}},
		{"sharded", func(t *testing.T) twsim.Backend {
			db, err := twsim.OpenMemSharded(twsim.ShardedOptions{Shards: 3})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { db.Close() })
			return db
		}},
	}
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			db := be.open(t)
			if _, err := db.Add([]float64{1, 2, 3}); err != nil {
				t.Fatal(err)
			}
			for _, p := range poisons {
				t.Run(p.name, func(t *testing.T) {
					bad := []float64{1, p.v, 3}
					check := func(op string, err error) {
						t.Helper()
						if !errors.Is(err, twsim.ErrNonFinite) {
							t.Errorf("%s: err = %v, want ErrNonFinite", op, err)
						}
					}

					_, err := db.Add(bad)
					check("Add", err)

					before := db.Len()
					_, err = db.AddBatch([][]float64{{4, 5}, bad, {6, 7}})
					check("AddBatch", err)
					if db.Len() != before {
						t.Errorf("AddBatch inserted %d sequences before failing", db.Len()-before)
					}

					ctx := context.Background()
					_, err = db.SearchCtx(ctx, bad, 1, 0)
					check("SearchCtx", err)
					_, err = db.NearestKCtx(ctx, bad, 1, 0)
					check("NearestKCtx", err)
					if math.IsNaN(p.v) {
						// A NaN tolerance is refused like a NaN element.
						_, err = db.SearchCtx(ctx, []float64{1, 2, 3}, p.v, 0)
						check("SearchCtx(ε NaN)", err)
					}
				})
			}
		})
	}
}

// TestNonFiniteRejectedSingleOnly covers the entry points that exist only
// on *DB: AddAll (with rollback) and subsequence search, its tolerance
// included.
func TestNonFiniteRejectedSingleOnly(t *testing.T) {
	db, err := twsim.OpenMem(twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 4; i++ {
		if _, err := db.Add([]float64{float64(i), float64(i + 1), float64(i + 2), float64(i + 3)}); err != nil {
			t.Fatal(err)
		}
	}
	si, err := db.BuildSubseqIndex([]int{3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer si.Close()
	for _, p := range poisons {
		t.Run(p.name, func(t *testing.T) {
			bad := []float64{1, p.v}
			before := db.Len()
			if _, err := db.AddAll([][]float64{{8, 9}, bad}); !errors.Is(err, twsim.ErrNonFinite) {
				t.Errorf("AddAll: err = %v, want ErrNonFinite", err)
			}
			if db.Len() != before {
				t.Errorf("AddAll inserted %d sequences before failing", db.Len()-before)
			}
			if _, err := si.Search(bad, 1); !errors.Is(err, twsim.ErrNonFinite) {
				t.Errorf("SubseqIndex.Search: err = %v, want ErrNonFinite", err)
			}
		})
	}
	// The subsequence door checks its tolerance too: NaN is ErrNonFinite,
	// a negative one is refused as negative.
	if _, err := si.Search([]float64{1, 2, 3}, math.NaN()); !errors.Is(err, twsim.ErrNonFinite) {
		t.Errorf("SubseqIndex.Search(ε NaN): err = %v, want ErrNonFinite", err)
	}
	if _, err := si.Search([]float64{1, 2, 3}, -1); err == nil || !strings.Contains(err.Error(), "negative tolerance") {
		t.Errorf("SubseqIndex.Search(ε -1): err = %v, want a negative-tolerance error", err)
	}
}
