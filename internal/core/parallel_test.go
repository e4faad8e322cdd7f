package core

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/dtw"
	"repro/internal/seq"
	"repro/internal/synth"
)

// scrubIO zeroes the fields that legitimately vary between serial and
// parallel execution: wall time, and the buffer-pool counters (concurrent
// fetch interleavings change eviction order, hence miss counts). Everything
// else — candidate counts, per-tier prune counts, DTW work — must be
// identical, because with a fixed cutoff every candidate's verdict is
// independent of evaluation order.
func scrubIO(s QueryStats) QueryStats {
	s.Wall, s.FilterWall, s.RefineWall = 0, 0, 0
	s.DataReads, s.DataMisses, s.DataSeqMisses = 0, 0, 0
	s.IndexReads, s.IndexMisses, s.IndexSeqMisses = 0, 0, 0
	return s
}

// checkConservation asserts the refinement ledger balances: every candidate
// the filter admitted was either pruned by exactly one cascade tier or paid
// an exact DTW call. Parallel refinement sums per-worker stats, so a lost or
// double-counted candidate would break this.
func checkConservation(t *testing.T, s QueryStats) {
	t.Helper()
	pruned := s.LBPAAPruned + s.LBKeoghPruned + s.CorridorPruned
	if s.Candidates != pruned+s.DTWCalls {
		t.Fatalf("conservation violated: %d candidates != %d pruned + %d DTW calls",
			s.Candidates, pruned, s.DTWCalls)
	}
}

// TestParallelRefineOracle: range search with a worker pool returns
// bit-identical matches and identical work counters versus the serial path,
// for every base, with and without the cascade.
func TestParallelRefineOracle(t *testing.T) {
	workerCounts := []int{2, 3, runtime.GOMAXPROCS(0) + 1}
	for _, base := range []seq.Base{seq.LInf, seq.L1, seq.L2Sq} {
		for _, noCascade := range []bool{false, true} {
			name := base.String()
			if noCascade {
				name += "/nocascade"
			}
			t.Run(name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(59))
				data := synth.RandomWalkSetVaryLen(rng, 150, 5, 40)
				db, idx := buildFixture(t, data)
				serial := &TWSimSearch{DB: db, Index: idx, Base: base, NoCascade: noCascade}
				epsilons := []float64{0.05, 0.3, 1.2}
				if base == seq.L2Sq || base == seq.L1 {
					epsilons = []float64{0.5, 3, 15}
				}
				for qi, q := range synth.Queries(rng, data, 8) {
					for _, eps := range epsilons {
						want, err := serial.Search(q, eps)
						if err != nil {
							t.Fatal(err)
						}
						checkConservation(t, want.Stats)
						for _, w := range workerCounts {
							par := &TWSimSearch{DB: db, Index: idx, Base: base, NoCascade: noCascade, Workers: w}
							got, err := par.Search(q, eps)
							if err != nil {
								t.Fatal(err)
							}
							if len(got.Matches) != len(want.Matches) {
								t.Fatalf("query %d eps %g workers %d: %d matches, serial %d",
									qi, eps, w, len(got.Matches), len(want.Matches))
							}
							for i := range want.Matches {
								if got.Matches[i] != want.Matches[i] {
									t.Fatalf("query %d eps %g workers %d match %d: %+v, serial %+v",
										qi, eps, w, i, got.Matches[i], want.Matches[i])
								}
							}
							if g, s := scrubIO(got.Stats), scrubIO(want.Stats); g != s {
								t.Fatalf("query %d eps %g workers %d: stats diverge\nparallel %+v\nserial   %+v",
									qi, eps, w, g, s)
							}
							checkConservation(t, got.Stats)
						}
					}
				}
			})
		}
	}
}

// TestParallelNearestKOracle: parallel k-NN verification returns the exact
// serial result — same IDs, same float64 distances, same order — with and
// without a cross-partition shared bound. (Work counters may differ: a
// worker can observe a momentarily stale cutoff and run a DTW the serial
// path would have pruned; the result set is still provably identical.)
func TestParallelNearestKOracle(t *testing.T) {
	for _, base := range []seq.Base{seq.LInf, seq.L1, seq.L2Sq} {
		t.Run(base.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(61))
			data := synth.RandomWalkSetVaryLen(rng, 120, 5, 35)
			db, idx := buildFixture(t, data)
			serial := &TWSimSearch{DB: db, Index: idx, Base: base}
			for trial := 0; trial < 8; trial++ {
				q := synth.Query(rng, data)
				k := 1 + rng.Intn(9)
				want, err := serial.NearestK(q, k)
				if err != nil {
					t.Fatal(err)
				}
				for _, w := range []int{2, 4} {
					par := &TWSimSearch{DB: db, Index: idx, Base: base, Workers: w}
					got, err := par.NearestK(q, k)
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(want) {
						t.Fatalf("trial %d k=%d workers %d: %d matches, serial %d",
							trial, k, w, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("trial %d k=%d workers %d rank %d: %+v, serial %+v",
								trial, k, w, i, got[i], want[i])
						}
					}
					// Shared bound seeded identically on both sides: the
					// parallel walk must still produce the serial answer.
					wb, gb := NewSharedBound(), NewSharedBound()
					wantB, err := serial.NearestKShared(q, k, wb)
					if err != nil {
						t.Fatal(err)
					}
					gotB, err := par.NearestKShared(q, k, gb)
					if err != nil {
						t.Fatal(err)
					}
					if len(gotB) != len(wantB) {
						t.Fatalf("trial %d k=%d workers %d shared: %d matches, serial %d",
							trial, k, w, len(gotB), len(wantB))
					}
					for i := range wantB {
						if gotB[i] != wantB[i] {
							t.Fatalf("trial %d k=%d workers %d shared rank %d: %+v, serial %+v",
								trial, k, w, i, gotB[i], wantB[i])
						}
					}
				}
			}
		})
	}
}

// TestL2SqFilterRadiusSound is the regression test for the seed's false
// dismissal: under BaseL2Sq the DTW accumulates *squared* differences while
// the index's feature-space lower bound is in plain (unsquared) distance
// units, so the filter must search radius √ε, not ε.
//
// The witness: S = [0], Q = [0.4], ε = 0.25. The single aligned pair gives
// Dtw_L2Sq = 0.16 ≤ ε (a genuine match) but the feature lower bound is
// |0.4 - 0| = 0.4 > ε, so a radius-ε filter dismisses S without ever
// running DTW. Radius √ε = 0.5 ≥ 0.4 admits it.
func TestL2SqFilterRadiusSound(t *testing.T) {
	data := []seq.Sequence{{0}}
	db, idx := buildFixture(t, data)
	q := seq.Sequence{0.4}
	const eps = 0.25

	// The seed's radius really does dismiss the match at the index level.
	oldSet, err := idx.RangeQuery(seq.MustFeature(q), eps)
	if err != nil {
		t.Fatal(err)
	}
	if len(oldSet) != 0 {
		t.Fatalf("radius ε admitted %d entries; the witness no longer exercises the bug", len(oldSet))
	}
	newSet, err := idx.RangeQuery(seq.MustFeature(q), filterRadius(seq.L2Sq, eps))
	if err != nil {
		t.Fatal(err)
	}
	if len(newSet) != 1 {
		t.Fatalf("radius √ε admitted %d entries, want 1", len(newSet))
	}

	s := &TWSimSearch{DB: db, Index: idx, Base: seq.L2Sq}
	res, err := s.Search(q, eps)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 1 {
		t.Fatalf("Search found %d matches, want the ε=0.25 witness", len(res.Matches))
	}
	want := dtw.Distance(data[0], q, seq.L2Sq)
	if res.Matches[0].Dist != want || want > eps {
		t.Fatalf("match distance %g, want %g ≤ %g", res.Matches[0].Dist, want, eps)
	}
}

// TestL2SqBruteForceOracle: for a spread of tolerances spanning both sides
// of ε = 1 (where √ε crosses ε, i.e. where the old radius flips from
// unsound to merely wasteful), the index-filtered search matches an exact
// linear scan under BaseL2Sq.
func TestL2SqBruteForceOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	data := synth.RandomWalkSetVaryLen(rng, 100, 4, 25)
	db, idx := buildFixture(t, data)
	s := &TWSimSearch{DB: db, Index: idx, Base: seq.L2Sq}
	for _, eps := range []float64{0.01, 0.25, 0.9, 1.0, 2.5, 10} {
		for qi, q := range synth.Queries(rng, data, 6) {
			res, err := s.Search(q, eps)
			if err != nil {
				t.Fatal(err)
			}
			got := make(map[seq.ID]float64, len(res.Matches))
			for _, m := range res.Matches {
				got[m.ID] = m.Dist
			}
			want := 0
			for i, stored := range data {
				d := dtw.Distance(stored, q, seq.L2Sq)
				if d <= eps {
					want++
					gd, ok := got[seq.ID(i)]
					if !ok {
						t.Fatalf("eps %g query %d: sequence %d (Dtw %g) falsely dismissed", eps, qi, i, d)
					}
					if gd != d && !(math.IsNaN(gd) && math.IsNaN(d)) {
						t.Fatalf("eps %g query %d id %d: distance %g, want %g", eps, qi, i, gd, d)
					}
				}
			}
			if len(res.Matches) != want {
				t.Fatalf("eps %g query %d: %d matches, brute force %d", eps, qi, len(res.Matches), want)
			}
		}
	}

	// k-NN over near copies of one walk, where every distance lies in
	// (0, 1): there the walk's raw LB_Kim key exceeds its comparable
	// (squared) form, so a walk that stopped on the raw key would dismiss
	// true neighbours.
	noisy := func(w seq.Sequence) seq.Sequence {
		c := append(seq.Sequence(nil), w...)
		for i := range c {
			c[i] += (rng.Float64() - 0.5) * 0.08
		}
		return c
	}
	walk := synth.RandomWalk(rng, 32)
	near := make([]seq.Sequence, 60)
	for i := range near {
		near[i] = noisy(walk)
	}
	ndb, nidx := buildFixture(t, near)
	for trial := 0; trial < 6; trial++ {
		q := noisy(walk)
		all := make([]Match, len(near))
		for i, stored := range near {
			all[i] = Match{ID: seq.ID(i), Dist: dtw.Distance(stored, q, seq.L2Sq)}
			if !(all[i].Dist > 0 && all[i].Dist < 1) {
				t.Fatalf("trial %d id %d: Dtw %g, the case needs every distance in (0, 1)", trial, i, all[i].Dist)
			}
		}
		sortMatches(all)
		for _, workers := range []int{1, 2} {
			ns := &TWSimSearch{DB: ndb, Index: nidx, Base: seq.L2Sq, Workers: workers}
			for _, k := range []int{1, 5, 20} {
				got, err := ns.NearestK(q, k)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != k {
					t.Fatalf("trial %d workers %d k=%d: %d matches", trial, workers, k, len(got))
				}
				for i := range got {
					if got[i] != all[i] {
						t.Fatalf("trial %d workers %d k=%d rank %d: %+v, brute force %+v", trial, workers, k, i, got[i], all[i])
					}
				}
			}
		}
	}
}

// TestWorkerCascadesShareEnvelopes: a query refined on several goroutines
// builds its envelope once — every worker's cascade reads the first one's —
// while the state a candidate evaluation writes stays per worker. A cascade
// under an additive base is disabled, like NoCascade's.
func TestWorkerCascadesShareEnvelopes(t *testing.T) {
	q := synth.RandomWalk(rand.New(rand.NewSource(5)), 32)
	cs := workerCascades(newCascade(q, seq.LInf, 4, nil, false), 3)
	for w, c := range cs {
		defer c.close()
		if &c.bandEnv.Lower[0] != &cs[0].bandEnv.Lower[0] {
			t.Fatalf("worker %d rebuilt the query's envelope", w)
		}
		if c.band != 4 || c.base != seq.LInf || c.refiner == nil {
			t.Fatalf("worker %d: band %d base %v refiner %v", w, c.band, c.base, c.refiner)
		}
		if w > 0 && (c == cs[0] || c.refiner == cs[0].refiner) {
			t.Fatalf("worker %d shares the first cascade's mutable state", w)
		}
	}
	if off := workerCascades(newCascade(q, seq.LInf, 0, nil, true), 2)[1]; !off.disabled || off.refiner != nil {
		t.Fatalf("a disabled cascade's worker: disabled %v refiner %v", off.disabled, off.refiner)
	}
	for _, base := range []seq.Base{seq.L1, seq.L2Sq} {
		add := newCascade(q, base, 4, nil, false)
		if !add.disabled || add.refiner != nil || add.decider != nil || add.bandEnv.Lower != nil {
			t.Fatalf("base %v: the cascade prunes an additive base (disabled %v)", base, add.disabled)
		}
		add.close()
	}
}

// TestNearestKTopMatchesSort pins the bounded k-best heap (knnTop) to a
// brute-force sort: banded k-NN over equal-length walks, some stored twice
// so that distances tie and the ID breaks them, returns exactly the first k
// of all records sorted by (BandDistance, ID) — the same IDs and the same
// distance bits — for k of 1, 10, n and n + 7, with one refine worker and
// with two.
func TestNearestKTopMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	data := synth.RandomWalkSet(rng, 200, 32)
	data = append(data, data[:40]...) // ties: records 200..239 repeat 0..39
	db, idx := buildFixture(t, data)
	envs := NewEnvStore()
	for i, s := range data {
		pe, err := seq.ExtractPAAEnvelope(s)
		if err != nil {
			t.Fatal(err)
		}
		envs.Put(seq.ID(i), pe)
	}
	const band = 4
	n := len(data)
	for trial := 0; trial < 4; trial++ {
		q := synth.Query(rng, data)
		all := make([]Match, n)
		for i, s := range data {
			all[i] = Match{ID: seq.ID(i), Dist: dtw.BandDistance(s, q, seq.LInf, band)}
		}
		sortMatches(all)
		for _, k := range []int{1, 10, n, n + 7} {
			want := all[:min(k, n)]
			for _, workers := range []int{1, 2} {
				tw := &TWSimSearch{DB: db, Index: idx, Base: seq.LInf, Band: band, Envs: envs, Workers: workers}
				got, err := tw.NearestK(q, k)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("trial %d k=%d workers %d: %d matches, want %d", trial, k, workers, len(got), len(want))
				}
				for i := range want {
					if got[i].ID != want[i].ID || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
						t.Fatalf("trial %d k=%d workers %d rank %d: %+v, want %+v", trial, k, workers, i, got[i], want[i])
					}
				}
			}
		}
	}
}
