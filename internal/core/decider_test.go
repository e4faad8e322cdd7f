package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dtw"
	"repro/internal/seq"
	"repro/internal/synth"
)

// withoutDecider runs fn with every new cascade on the refiner-only route,
// the one unbanded L∞ candidates took before the decision existed.
func withoutDecider(fn func()) {
	defer func(saved func(seq.Sequence) *dtw.Decider) { acquireDecider = saved }(acquireDecider)
	acquireDecider = func(seq.Sequence) *dtw.Decider { return nil }
	fn()
}

// workCounts is st without its wall times and I/O counters: what the
// cascade decides, candidate by candidate.
func workCounts(st QueryStats) QueryStats {
	st.Wall, st.FilterWall, st.RefineWall = 0, 0, 0
	st.DataReads, st.DataMisses, st.DataSeqMisses = 0, 0, 0
	st.IndexReads, st.IndexMisses, st.IndexSeqMisses = 0, 0, 0
	return st
}

func sameMatches(t *testing.T, what string, got, want []Match) {
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

func conserved(st QueryStats) bool {
	return st.LBPAAPruned+st.LBKeoghPruned+st.CorridorPruned+st.DTWCalls == st.Candidates
}

// TestDeciderRouteKeepsAnswersAndStats: with the decision in front of the
// refiner, unbanded L∞ range and k-NN queries over a mixed-length corpus
// (lengths across the 64-column words) return the matches of the disabled
// cascade to the bit, and every work counter the refiner-only route counts.
func TestDeciderRouteKeepsAnswersAndStats(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	data := synth.RandomWalkSetVaryLen(rng, 400, 20, 260)
	db, idx := buildFixture(t, data)
	queries := synth.Queries(rng, data, 8)
	queries[1] = queries[1][:len(queries[1])*2/3]
	plain := &TWSimSearch{DB: db, Index: idx, Base: seq.LInf, NoCascade: true}
	decided := 0
	tw := &TWSimSearch{DB: db, Index: idx, Base: seq.LInf}
	for qi, q := range queries {
		c := newCascade(q, seq.LInf, 0, nil, false)
		if c.decider == nil {
			t.Fatalf("query %d (|Q| = %d): no decider", qi, len(q))
		}
		c.close()
		for _, eps := range []float64{0.05, 0.3, 0.8} {
			got, err := tw.Search(q, eps)
			if err != nil {
				t.Fatal(err)
			}
			var ref *Result
			withoutDecider(func() { ref, err = tw.Search(q, eps) })
			if err != nil {
				t.Fatal(err)
			}
			want, err := plain.Search(q, eps)
			if err != nil {
				t.Fatal(err)
			}
			sameMatches(t, "range", got.Matches, want.Matches)
			sameMatches(t, "refiner-only range", ref.Matches, want.Matches)
			if workCounts(got.Stats) != workCounts(ref.Stats) || !conserved(got.Stats) {
				t.Fatalf("query %d eps %g: stats %+v, refiner-only %+v",
					qi, eps, workCounts(got.Stats), workCounts(ref.Stats))
			}
			decided += got.Stats.Candidates
		}
		for _, k := range []int{1, 7, 40} {
			got, gs, err := tw.NearestKSharedStats(q, k, nil)
			if err != nil {
				t.Fatal(err)
			}
			var (
				ref []Match
				rs  QueryStats
			)
			withoutDecider(func() { ref, rs, err = tw.NearestKSharedStats(q, k, nil) })
			if err != nil {
				t.Fatal(err)
			}
			want, err := plain.NearestK(q, k)
			if err != nil {
				t.Fatal(err)
			}
			sameMatches(t, "k-NN", got, want)
			sameMatches(t, "refiner-only k-NN", ref, want)
			if !conserved(gs) || workCounts(gs) != workCounts(rs) {
				t.Fatalf("query %d k %d: stats %+v, refiner-only %+v",
					qi, k, workCounts(gs), workCounts(rs))
			}
		}
	}
	if decided == 0 {
		t.Fatal("no range candidate reached the decision")
	}
}

// TestVerifyDPDecisionMatchesRefiner holds verifyDP's decision route to the
// refiner-only route one candidate at a time: the same verdict, distance
// bits and counter at cutoffs on and one ulp either side of the distance and
// LB_Kim, at ±0, a negative, NaN and +Inf cutoff, and for an empty candidate
// and candidates holding NaN or ±Inf.
func TestVerifyDPDecisionMatchesRefiner(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	check := func(c, ref *cascade, s seq.Sequence, cut float64) {
		t.Helper()
		var gs, rs QueryStats
		gd, gok := c.verifyDP(s, cut, &gs)
		rd, rok := ref.verifyDP(s, cut, &rs)
		if gok != rok || math.Float64bits(gd) != math.Float64bits(rd) || gs != rs {
			t.Fatalf("|s|=%d |q|=%d cutoff %v: decision (%v, %v, %+v), refiner (%v, %v, %+v)",
				len(s), len(c.q), cut, gd, gok, gs, rd, rok, rs)
		}
	}
	// Pairs whose distance lies just above LB_Kim: q's middle 0 is matched
	// to s's middle element at the least cost, 1.00005 (LB_Kim 1) or the
	// smallest subnormal (LB_Kim 0).
	crafted := [][2]seq.Sequence{
		{{1, 3, 1.00005, 3, 0}, {0, 3, 0, 3, 0}},
		{{0, 2, math.SmallestNonzeroFloat64, 2, 0}, {0, 2, 0, 2, 0}},
	}
	for trial := 0; trial < 300; trial++ {
		s := synth.RandomWalk(rng, 1+rng.Intn(200))
		q := synth.Query(rng, []seq.Sequence{s})
		if rng.Intn(2) == 0 {
			q = q[:1+rng.Intn(len(q))]
		}
		if trial < len(crafted) {
			s, q = crafted[trial][0], crafted[trial][1]
		}
		c := newCascade(q, seq.LInf, 0, nil, false)
		ref := newCascade(q, seq.LInf, 0, nil, false)
		ref.decider.Release()
		ref.decider = nil
		dist, lb := dtw.Distance(s, q, seq.LInf), dtw.LBKim(s, q)
		for _, cut := range []float64{
			dist, math.Nextafter(dist, -1), math.Nextafter(dist, math.Inf(1)),
			lb, math.Nextafter(lb, -1), 0.3,
			0, math.Copysign(0, -1), -1, math.NaN(), math.Inf(1),
		} {
			check(c, ref, s, cut)
		}
		check(c, ref, seq.Sequence{}, 1)
		bad := s.Clone()
		bad[rng.Intn(len(bad))] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[trial%3]
		for _, cut := range []float64{dist, 0.3, 1e300} {
			check(c, ref, bad, cut)
		}
		c.close()
		ref.close()
	}
}

// TestLongQueryKeepsRefinerRoute: 1 024 elements is the longest query the
// cascade indexes for the decision; a query of 1 025 takes the refiner-only
// route, and both answer as the disabled cascade does.
func TestLongQueryKeepsRefinerRoute(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	data := synth.RandomWalkSetVaryLen(rng, 40, 1025, 1100)
	data = append(data, data[0][:1024], data[0][:1025])
	db, idx := buildFixture(t, data)
	tw := &TWSimSearch{DB: db, Index: idx, Base: seq.LInf}
	plain := &TWSimSearch{DB: db, Index: idx, Base: seq.LInf, NoCascade: true}
	for _, m := range []int{1024, 1025} {
		q := data[0][:m].Clone()
		for j := range q {
			q[j] += rng.Float64()*0.1 - 0.05
		}
		c := newCascade(q, seq.LInf, 0, nil, false)
		if (c.decider != nil) != (m <= 1024) {
			t.Fatalf("|Q| = %d: decider %v", m, c.decider != nil)
		}
		c.close()
		got, err := tw.Search(q, 0.6)
		if err != nil {
			t.Fatal(err)
		}
		want, err := plain.Search(q, 0.6)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Matches) == 0 {
			t.Fatalf("|Q| = %d: no match to compare", m)
		}
		sameMatches(t, "long query", got.Matches, want.Matches)
		if !conserved(got.Stats) {
			t.Fatalf("|Q| = %d: %+v", m, got.Stats)
		}
	}
}

// TestLongCandidateKeepsRefinerRoute: a 1 024-element query's decision
// keeps the reach rows of at most 2 048 candidate elements (dtw's cap of
// 32 768 words, 16 a row). A result of 2 048 elements is valued inside its
// co-reach windows, one of 2 049 by the refiner after both decisions, and
// the search answers as the disabled cascade does.
func TestLongCandidateKeepsRefinerRoute(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	q := synth.RandomWalk(rng, 1024)
	// q stretched to n elements with ±0.05 of noise: a result at ε 0.6 whose
	// distance LB_Kim does not reach.
	stretch := func(n int) seq.Sequence {
		s := make(seq.Sequence, n)
		for i := range s {
			s[i] = q[i*len(q)/n] + rng.Float64()*0.1 - 0.05
		}
		return s
	}
	long := []seq.Sequence{stretch(2048), stretch(2049)}
	data := append(synth.RandomWalkSetVaryLen(rng, 40, 500, 1000), long...)
	c := newCascade(q, seq.LInf, 0, nil, false)
	defer c.close()
	for _, s := range long {
		if !c.decider.WithinKeep(s, 0.6, c.refiner) || c.decider.Within(s, c.decider.LBKim(s)) {
			t.Fatalf("|s| = %d: not a result step (3) values", len(s))
		}
		if _, windowed := c.refiner.CorridorDistance(s, q); windowed != (len(s) <= 2048) {
			t.Fatalf("|s| = %d: windowed %v", len(s), windowed)
		}
		var st QueryStats
		d, ok := c.verifyDP(s, 0.6, &st)
		if want := dtw.Distance(s, q, seq.LInf); !ok || math.Float64bits(d) != math.Float64bits(want) || st.DTWCalls != 1 {
			t.Fatalf("|s| = %d: verifyDP (%v, %v, %+v), Distance %v", len(s), d, ok, st, want)
		}
	}

	db, idx := buildFixture(t, data)
	tw := &TWSimSearch{DB: db, Index: idx, Base: seq.LInf}
	plain := &TWSimSearch{DB: db, Index: idx, Base: seq.LInf, NoCascade: true}
	got, err := tw.Search(q, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.Search(q, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Matches) < len(long) {
		t.Fatalf("%d matches, want the %d long candidates among them", len(want.Matches), len(long))
	}
	sameMatches(t, "long candidate", got.Matches, want.Matches)
	if !conserved(got.Stats) {
		t.Fatalf("%+v", got.Stats)
	}
}

// TestWarmUnbandedRangeQueryAllocs: a warmed serial unbanded range query
// allocates no more with the decision than on the refiner-only route (1 754
// allocations a query on this fixture, as before the decision existed): the
// index comes from a pool, the stack-row decision's row lives on the stack,
// and the kept reach rows, windows and DP row in the pooled refiner.
func TestWarmUnbandedRangeQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes pool operations allocate")
	}
	rng := rand.New(rand.NewSource(53))
	data := synth.RandomWalkSetVaryLen(rng, 2000, 64, 192)
	db, idx := buildFixture(t, data)
	q := synth.Query(rng, data)
	tw := &TWSimSearch{DB: db, Index: idx, Base: seq.LInf}
	for i := 0; i < 5; i++ {
		if _, err := tw.Search(q, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	search := func() {
		if _, err := tw.Search(q, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	got := testing.AllocsPerRun(50, search)
	var want float64
	withoutDecider(func() { want = testing.AllocsPerRun(50, search) })
	if got > want {
		t.Fatalf("%v allocs a query with the decision, %v on the refiner-only route", got, want)
	}
}
