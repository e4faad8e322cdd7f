package core

import (
	"math/rand"
	"testing"

	"repro/internal/seq"
	"repro/internal/synth"
)

// The cascade is an optimization, not a semantics change: with and without
// it, every search method must return bit-identical matches (same IDs, same
// float64 distances) on length-mismatched corpora under all three bases.
func TestCascadeOracleBitIdentical(t *testing.T) {
	for _, base := range []seq.Base{seq.LInf, seq.L1, seq.L2Sq} {
		t.Run(base.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(31))
			data := synth.RandomWalkSetVaryLen(rng, 150, 5, 40)
			db, idx := buildFixture(t, data)
			plain := &TWSimSearch{DB: db, Index: idx, Base: base, NoCascade: true}
			cascaded := &TWSimSearch{DB: db, Index: idx, Base: base}
			// L2Sq distances are squared, so stretch the tolerance ladder.
			epsilons := []float64{0.05, 0.2, 0.5, 1.5}
			if base == seq.L2Sq || base == seq.L1 {
				epsilons = []float64{0.5, 2, 8, 30}
			}
			for qi, q := range synth.Queries(rng, data, 12) {
				for _, eps := range epsilons {
					want, err := plain.Search(q, eps)
					if err != nil {
						t.Fatal(err)
					}
					got, err := cascaded.Search(q, eps)
					if err != nil {
						t.Fatal(err)
					}
					if len(got.Matches) != len(want.Matches) {
						t.Fatalf("query %d eps %g: cascade %d matches, plain %d",
							qi, eps, len(got.Matches), len(want.Matches))
					}
					for i := range want.Matches {
						if got.Matches[i] != want.Matches[i] {
							t.Fatalf("query %d eps %g pos %d: cascade %+v, plain %+v",
								qi, eps, i, got.Matches[i], want.Matches[i])
						}
					}
					if got.Stats.Candidates != want.Stats.Candidates {
						t.Fatalf("query %d eps %g: candidate sets differ (%d vs %d)",
							qi, eps, got.Stats.Candidates, want.Stats.Candidates)
					}
				}
			}
		})
	}
}

// k-NN through the cascade must reproduce the plain walk exactly, with and
// without a cross-partition shared bound (the bound evolution is identical
// because every admitted candidate yields the same exact distance).
func TestCascadeNearestKOracle(t *testing.T) {
	for _, base := range []seq.Base{seq.LInf, seq.L1, seq.L2Sq} {
		t.Run(base.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(37))
			data := synth.RandomWalkSetVaryLen(rng, 120, 5, 35)
			db, idx := buildFixture(t, data)
			plain := &TWSimSearch{DB: db, Index: idx, Base: base, NoCascade: true}
			cascaded := &TWSimSearch{DB: db, Index: idx, Base: base}
			for trial := 0; trial < 10; trial++ {
				q := synth.Query(rng, data)
				k := 1 + rng.Intn(9)
				want, err := plain.NearestK(q, k)
				if err != nil {
					t.Fatal(err)
				}
				got, err := cascaded.NearestK(q, k)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("trial %d k=%d: cascade %d, plain %d", trial, k, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("trial %d k=%d pos %d: cascade %+v, plain %+v",
							trial, k, i, got[i], want[i])
					}
				}
				// Same walk under a shared bound seeded by another partition's
				// published k-th best.
				wb, gb := NewSharedBound(), NewSharedBound()
				if len(want) > 0 {
					wb.Update(want[len(want)-1].Dist * 1.5)
					gb.Update(want[len(want)-1].Dist * 1.5)
				}
				wantS, err := plain.NearestKShared(q, k, wb)
				if err != nil {
					t.Fatal(err)
				}
				gotS, err := cascaded.NearestKShared(q, k, gb)
				if err != nil {
					t.Fatal(err)
				}
				if len(gotS) != len(wantS) {
					t.Fatalf("trial %d shared k=%d: cascade %d, plain %d",
						trial, k, len(gotS), len(wantS))
				}
				for i := range wantS {
					if gotS[i] != wantS[i] {
						t.Fatalf("trial %d shared pos %d: cascade %+v, plain %+v",
							trial, i, gotS[i], wantS[i])
					}
				}
			}
		})
	}
}

// Conservation of candidates: every index candidate is dismissed by exactly
// one tier or runs the DP, so the per-tier counters partition the candidate
// count. This is the accounting contract the benchmarks and /stats rely on.
func TestCascadeCounterConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	data := synth.RandomWalkSetVaryLen(rng, 200, 8, 40)
	db, idx := buildFixture(t, data)
	tw := &TWSimSearch{DB: db, Index: idx, Base: seq.LInf}
	for trial := 0; trial < 10; trial++ {
		q := synth.Query(rng, data)
		eps := 0.05 + rng.Float64()*0.5
		res, err := tw.Search(q, eps)
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		pruned := st.LBPAAPruned + st.LBKeoghPruned + st.LBImprovedPruned + st.CorridorPruned
		if pruned+st.DTWCalls != st.Candidates {
			t.Fatalf("trial %d: tiers %d + dtw %d != candidates %d (%+v)",
				trial, pruned, st.DTWCalls, st.Candidates, st)
		}
		if st.DTWAbandoned > st.DTWCalls {
			t.Fatalf("trial %d: abandoned %d > calls %d", trial, st.DTWAbandoned, st.DTWCalls)
		}
		if st.Results+st.DTWAbandoned != st.DTWCalls {
			t.Fatalf("trial %d: results %d + abandoned %d != dtw calls %d",
				trial, st.Results, st.DTWAbandoned, st.DTWCalls)
		}
	}
}

// Dangling index entries (heap record deleted behind the index's back, as an
// interrupted write leaves them) must be skipped without touching DTWCalls:
// the counter reflects only DP invocations that actually ran.
func TestDanglingEntriesNotCountedAsDTWCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	data := synth.RandomWalkSet(rng, 50, 20)
	db, idx := buildFixture(t, data)
	// Tombstone 10 heap records directly, leaving their index entries in
	// place — exactly the state an interrupted write leaves behind.
	const dangling = 10
	for i := 0; i < dangling; i++ {
		if _, err := db.Delete(seq.ID(i * 5)); err != nil {
			t.Fatal(err)
		}
	}
	q := synth.Query(rng, data)
	const eps = 1e9 // admit everything: no tier can prune at this tolerance
	for _, noCascade := range []bool{true, false} {
		tw := &TWSimSearch{DB: db, Index: idx, Base: seq.LInf, NoCascade: noCascade}
		res, err := tw.Search(q, eps)
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		if st.Candidates != 50 {
			t.Fatalf("noCascade=%v: candidates %d, want 50 (index untouched)", noCascade, st.Candidates)
		}
		pruned := st.LBPAAPruned + st.LBKeoghPruned + st.LBImprovedPruned + st.CorridorPruned
		if pruned != 0 {
			t.Fatalf("noCascade=%v: %d tier prunes at eps=%g", noCascade, pruned, eps)
		}
		if st.DTWCalls != 50-dangling {
			t.Fatalf("noCascade=%v: DTWCalls %d, want %d (dangling entries must not count)",
				noCascade, st.DTWCalls, 50-dangling)
		}
		if len(res.Matches) != 50-dangling {
			t.Fatalf("noCascade=%v: %d matches, want %d", noCascade, len(res.Matches), 50-dangling)
		}
		for _, m := range res.Matches {
			if m.ID%5 == 0 && int(m.ID) < dangling*5 {
				t.Fatalf("noCascade=%v: deleted sequence %d resurfaced", noCascade, m.ID)
			}
		}
	}
}

// A k far beyond the database — it arrives off the wire — must cost memory
// proportional to the data, not to k, and answer with every sequence in
// ascending order. The same table doubles as the banded leg of the
// reference-path comparison: with the envelope store attached and a band
// set, the default searcher runs the envelope-ordered walk and the banded
// cascade, and must stay bit-identical to NoCascade (plain mindist order,
// exact DP only) serially and with workers.
func TestNearestKHugeKAndBandedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	data := synth.RandomWalkSet(rng, 40, 24)
	db, idx := buildFixture(t, data)
	envs := NewEnvStore()
	if _, err := Reconcile(db, idx, envs); err != nil { // derives every envelope
		t.Fatal(err)
	}
	q := synth.Query(rng, data)
	for _, band := range []int{0, 2} {
		for _, workers := range []int{1, 3} {
			for _, k := range []int{3, len(data), 1 << 40} {
				ref := &TWSimSearch{DB: db, Index: idx, Base: seq.LInf, Band: band, NoCascade: true}
				want, err := ref.NearestK(q, k)
				if err != nil {
					t.Fatal(err)
				}
				if wantLen := min(k, len(data)); len(want) != wantLen {
					t.Fatalf("band %d k=%d: reference returned %d matches, want %d", band, k, len(want), wantLen)
				}
				tw := &TWSimSearch{DB: db, Index: idx, Base: seq.LInf, Band: band, Envs: envs, Workers: workers}
				got, err := tw.NearestK(q, k)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("band %d workers %d k=%d: %d matches, reference %d", band, workers, k, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("band %d workers %d k=%d rank %d: %+v, reference %+v", band, workers, k, i, got[i], want[i])
					}
				}
			}
		}
	}
}
