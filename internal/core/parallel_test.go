package core

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/dtw"
	"repro/internal/seq"
	"repro/internal/seqdb"
	"repro/internal/synth"
)

// scrubIO zeroes the fields that legitimately vary between a query run alone
// and the same query run beside others: wall time, and the buffer-pool
// counters, which are the heap's and the index's shared counters read
// before and after the query, so they include the other queries' reads.
// Everything else — candidate counts, per-tier prune counts, DTW work, the
// k-NN walk's frontier counters — is the query's own and must be identical.
func scrubIO(s QueryStats) QueryStats {
	s.Wall, s.FilterWall, s.RefineWall = 0, 0, 0
	s.DataReads, s.DataMisses, s.DataSeqMisses = 0, 0, 0
	s.IndexReads, s.IndexMisses, s.IndexSeqMisses = 0, 0, 0
	return s
}

// checkConservation asserts the refinement ledger balances: every candidate
// the filter admitted was either pruned by exactly one cascade tier or paid
// an exact DTW call.
func checkConservation(t *testing.T, s QueryStats) {
	t.Helper()
	pruned := s.LBPAAPruned + s.LBKeoghPruned + s.CorridorPruned
	if s.Candidates != pruned+s.DTWCalls {
		t.Fatalf("conservation violated: %d candidates != %d pruned + %d DTW calls",
			s.Candidates, pruned, s.DTWCalls)
	}
}

// concurrentFixture is buildFixture's heap behind the index a database
// serves from (a flat slab) with every record's envelope in one EnvStore,
// so concurrent queries share the index, the store and the heap.
func concurrentFixture(t *testing.T, data []seq.Sequence) (*seqdb.DB, Index, *EnvStore) {
	t.Helper()
	db, _ := buildFixture(t, data)
	idx, err := NewFlatIndex(IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { idx.Close() })
	envs := NewEnvStore()
	if _, err := Derive(db, idx, envs); err != nil {
		t.Fatal(err)
	}
	return db, idx, envs
}

// concurrently calls fn(i) for every i in [0, n) on each of four
// goroutines at once, each starting a quarter further along, so that
// different queries overlap in time.
func concurrently(n int, fn func(i int)) {
	const goroutines = 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < n; j++ {
				fn((j + g*n/goroutines) % n)
			}
		}(g)
	}
	wg.Wait()
}

// TestParallelRefineOracle: range queries run from several goroutines at
// once against one fixture — sharing the refiner, decider and scratch pools
// and one EnvStore — each return the matches and the work counters of the
// same query run alone, bit for bit, for every base, unbanded and banded,
// with and without the cascade.
func TestParallelRefineOracle(t *testing.T) {
	for _, base := range []seq.Base{seq.LInf, seq.L1, seq.L2Sq} {
		for _, noCascade := range []bool{false, true} {
			name := base.String()
			if noCascade {
				name += "/nocascade"
			}
			t.Run(name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(59))
				data := synth.RandomWalkSetVaryLen(rng, 150, 5, 40)
				db, idx, envs := concurrentFixture(t, data)
				epsilons := []float64{0.05, 0.3, 1.2}
				if base == seq.L2Sq || base == seq.L1 {
					epsilons = []float64{0.5, 3, 15}
				}
				type call struct {
					tw   *TWSimSearch
					q    seq.Sequence
					eps  float64
					want *Result
				}
				var calls []call
				for _, q := range synth.Queries(rng, data, 8) {
					for _, eps := range epsilons {
						for _, band := range []int{0, 3} {
							tw := &TWSimSearch{DB: db, Index: idx, Base: base, NoCascade: noCascade, Band: band, Envs: envs}
							want, err := tw.Search(q, eps)
							if err != nil {
								t.Fatal(err)
							}
							checkConservation(t, want.Stats)
							calls = append(calls, call{tw, q, eps, want})
						}
					}
				}
				concurrently(len(calls), func(i int) {
					c := calls[i]
					got, err := c.tw.Search(c.q, c.eps)
					if err != nil {
						t.Error(err)
						return
					}
					if !slices.Equal(got.Matches, c.want.Matches) {
						t.Errorf("call %d (eps %g band %d): %+v, alone %+v", i, c.eps, c.tw.Band, got.Matches, c.want.Matches)
					}
					if g, w := scrubIO(got.Stats), scrubIO(c.want.Stats); g != w {
						t.Errorf("call %d (eps %g band %d): stats diverge\nconcurrent %+v\nalone      %+v", i, c.eps, c.tw.Band, g, w)
					}
				})
			})
		}
	}
}

// TestParallelNearestKOracle: k-NN queries run from several goroutines at
// once against one fixture each return the matches — same IDs, same
// float64 distances, same order — and the work counters of the same query
// run alone, with and without a cross-partition shared bound of their own,
// unbanded and banded.
func TestParallelNearestKOracle(t *testing.T) {
	for _, base := range []seq.Base{seq.LInf, seq.L1, seq.L2Sq} {
		t.Run(base.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(61))
			data := synth.RandomWalkSetVaryLen(rng, 120, 5, 35)
			db, idx, envs := concurrentFixture(t, data)
			type call struct {
				tw     *TWSimSearch
				q      seq.Sequence
				k      int
				shared bool
				want   []Match
				stats  QueryStats
			}
			var calls []call
			for trial := 0; trial < 8; trial++ {
				q := synth.Query(rng, data)
				k := 1 + rng.Intn(9)
				for _, band := range []int{0, 3} {
					tw := &TWSimSearch{DB: db, Index: idx, Base: base, Band: band, Envs: envs}
					for _, shared := range []bool{false, true} {
						var bound *SharedBound
						if shared {
							bound = NewSharedBound()
						}
						want, stats, err := tw.NearestKSharedStats(q, k, bound)
						if err != nil {
							t.Fatal(err)
						}
						checkConservation(t, stats)
						calls = append(calls, call{tw, q, k, shared, want, stats})
					}
				}
			}
			concurrently(len(calls), func(i int) {
				c := calls[i]
				var bound *SharedBound
				if c.shared {
					bound = NewSharedBound()
				}
				got, stats, err := c.tw.NearestKSharedStats(c.q, c.k, bound)
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.Equal(got, c.want) {
					t.Errorf("call %d (k=%d band %d shared %v): %+v, alone %+v", i, c.k, c.tw.Band, c.shared, got, c.want)
				}
				if g, w := scrubIO(stats), scrubIO(c.stats); g != w {
					t.Errorf("call %d (k=%d band %d shared %v): stats diverge\nconcurrent %+v\nalone      %+v", i, c.k, c.tw.Band, c.shared, g, w)
				}
			})
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
	ns := &TWSimSearch{DB: ndb, Index: nidx, Base: seq.L2Sq}
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
		for _, k := range []int{1, 5, 20} {
			got, err := ns.NearestK(q, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != k {
				t.Fatalf("trial %d k=%d: %d matches", trial, k, len(got))
			}
			for i := range got {
				if got[i] != all[i] {
					t.Fatalf("trial %d k=%d rank %d: %+v, brute force %+v", trial, k, i, got[i], all[i])
				}
			}
		}
	}
}

// TestNearestKTopMatchesSort pins the bounded k-best heap (knnTop) to a
// brute-force sort: banded k-NN over equal-length walks, some stored twice
// so that distances tie and the ID breaks them, returns exactly the first k
// of all records sorted by (BandDistance, ID) — the same IDs and the same
// distance bits — for k of 1, 10, n and n + 7.
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
			tw := &TWSimSearch{DB: db, Index: idx, Base: seq.LInf, Band: band, Envs: envs}
			got, err := tw.NearestK(q, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d k=%d: %d matches, want %d", trial, k, len(got), len(want))
			}
			for i := range want {
				if got[i].ID != want[i].ID || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
					t.Fatalf("trial %d k=%d rank %d: %+v, want %+v", trial, k, i, got[i], want[i])
				}
			}
		}
	}
}
