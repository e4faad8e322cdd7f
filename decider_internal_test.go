package twsim

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dtw"
	"repro/internal/seq"
	"repro/internal/synth"
)

// refinerOnlyCounts is what the refiner alone makes of the candidates an
// unbanded L∞ range query at eps admits: the corridor prunes and the DTW
// calls (the results).
func refinerOnlyCounts(t *testing.T, db *DB, q seq.Sequence, eps float64) (pruned, calls int) {
	t.Helper()
	ids, err := db.index.RangeQuery(seq.MustFeature(q), eps)
	if err != nil {
		t.Fatal(err)
	}
	r := dtw.AcquireRefiner()
	defer r.Release()
	for _, id := range ids {
		s, err := db.store.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, v := r.DistanceWithin(s, q, seq.LInf, eps); v == dtw.VerdictWithin {
			calls++
		} else {
			pruned++
		}
	}
	return pruned, calls
}

func sameMatchBits(t *testing.T, what string, got, want []Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
			t.Fatalf("%s rank %d: %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// TestUnbandedDecisionKeepsAnswersAndCounts: on an OpenMem corpus of
// random walks whose lengths (20–300) straddle the decision's 64-column
// words, unbanded L∞ range and k-NN queries — serial and with workers —
// return the disabled cascade's matches to the bit, and range queries put
// exactly the refiner's verdicts in DTWCalls and its rejections in
// LBPAAPruned (the segment decision before the fetch) plus CorridorPruned
// (the decision after it), with Candidates = Σ pruned + DTWCalls throughout. With two
// refine workers the range queries also run from two goroutines at once.
func TestUnbandedDecisionKeepsAnswersAndCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	data := synth.RandomWalkSetVaryLen(rng, 1500, 20, 300)
	queries := synth.Queries(rng, data, 6)
	queries[2] = queries[2][:len(queries[2])/2]
	for _, workers := range []int{1, 2} {
		db, err := OpenMem(Options{RefineWorkers: workers})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		for _, s := range data {
			if _, err := db.Add(s); err != nil {
				t.Fatal(err)
			}
		}
		ref := db.searcher(nil, 0)
		ref.NoCascade = true
		check := func(what string, q seq.Sequence, eps float64, res *Result) {
			t.Helper()
			want, err := ref.Search(q, eps)
			if err != nil {
				t.Fatal(err)
			}
			sameMatchBits(t, what, res.Matches, want.Matches)
			pruned, calls := refinerOnlyCounts(t, db, q, eps)
			st := res.Stats
			if st.LBPAAPruned+st.CorridorPruned != pruned || st.DTWCalls != calls || st.Candidates != pruned+calls ||
				st.LBKeoghPruned != 0 {
				t.Fatalf("%s workers %d eps %g: %+v, refiner-only %d pruned + %d calls", what, workers, eps, st, pruned, calls)
			}
		}
		decided, segment, corridor := 0, 0, 0
		for qi, q := range queries {
			for _, eps := range []float64{0.1, 0.3, 0.6} {
				res, err := db.Search(q, eps)
				if err != nil {
					t.Fatal(err)
				}
				check("range", q, eps, res)
				decided += (res.Stats.LBPAAPruned + res.Stats.CorridorPruned) * res.Stats.DTWCalls
				segment += res.Stats.LBPAAPruned
				corridor += res.Stats.CorridorPruned
			}
			for _, k := range []int{1, 10} {
				res, err := db.NearestKCtx(nil, q, k, 0)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.NearestK(q, k)
				if err != nil {
					t.Fatal(err)
				}
				sameMatchBits(t, "k-NN", res.Matches, want)
				st := res.Stats
				if st.CorridorPruned+st.DTWCalls != st.Candidates {
					t.Fatalf("k-NN workers %d query %d k %d: %+v", workers, qi, k, st)
				}
			}
		}
		if decided == 0 || segment == 0 || corridor == 0 {
			t.Fatalf("range queries: %d pruned × accepted, %d segment prunes, %d corridor prunes; want each > 0",
				decided, segment, corridor)
		}
		if workers == 2 {
			concurrentQueriesKeepBits(t, db, ref, queries)
		}
	}
}

// concurrentQueriesKeepBits runs every query at ε 0.3 from two goroutines
// at once on db's refine workers. The workers of one query share its
// decider, and each keeps the reach rows its windowed DP reads in its own
// refiner: were rows shared, answers would lose their bits here, and the
// race detector would report the shared writes.
func concurrentQueriesKeepBits(t *testing.T, db *DB, ref *core.TWSimSearch, queries []seq.Sequence) {
	t.Helper()
	want := make([][]Match, len(queries))
	for qi, q := range queries {
		res, err := ref.Search(q, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		want[qi] = res.Matches
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for qi, q := range queries {
				res, err := db.Search(q, 0.3)
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.EqualFunc(res.Matches, want[qi], func(a, b Match) bool {
					return a.ID == b.ID && math.Float64bits(a.Dist) == math.Float64bits(b.Dist)
				}) {
					t.Errorf("query %d on two goroutines: %v, want %v", qi, res.Matches, want[qi])
				}
			}
		}()
	}
	wg.Wait()
}
