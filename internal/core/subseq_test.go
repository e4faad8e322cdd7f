package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dtw"
	"repro/internal/seq"
	"repro/internal/synth"
)

func TestSubseqIndexAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	data := synth.RandomWalkSetVaryLen(rng, 40, 15, 40)
	db, _ := buildFixture(t, data)
	lens := []int{8, 12}
	si, err := BuildSubseqIndex(db, seq.LInf, lens, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer si.Close()

	// Brute force over the same window set of the live records.
	type key struct {
		id      seq.ID
		off, ln int
	}
	removed := map[seq.ID]bool{}
	check := func(q seq.Sequence, eps float64) QueryStats {
		t.Helper()
		want := map[key]float64{}
		for i, s := range data {
			if removed[seq.ID(i)] {
				continue
			}
			for _, w := range lens {
				for off := 0; off+w <= len(s); off++ {
					d := dtw.Distance(s[off:off+w], q, seq.LInf)
					if d <= eps {
						want[key{seq.ID(i), off, w}] = d
					}
				}
			}
		}
		res, err := si.Search(q, eps)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Matches) != len(want) {
			t.Fatalf("eps %g: %d matches, want %d", eps, len(res.Matches), len(want))
		}
		for _, m := range res.Matches {
			d, ok := want[key{m.ID, m.Offset, m.Len}]
			if !ok {
				t.Fatalf("unexpected match %+v", m)
			}
			if d != m.Dist {
				t.Fatalf("match %+v: dist %g, want %g", m, m.Dist, d)
			}
		}
		if res.Stats.Candidates < len(want) {
			t.Fatalf("candidates %d < answers %d", res.Stats.Candidates, len(want))
		}
		return res.Stats
	}
	for trial := 0; trial < 10; trial++ {
		check(synth.Query(rng, data)[:10], 0.1+rng.Float64()*0.3)
	}

	// Records removed after the build keep their windows in the index; a
	// search skips them, without a DTW call, instead of failing.
	for _, id := range []seq.ID{3, 17, 29} {
		if _, err := db.Delete(id); err != nil {
			t.Fatal(err)
		}
		removed[id] = true
	}
	if st := check(data[17][:8], 0.1); st.DTWCalls >= st.Candidates {
		t.Fatalf("removed record refined: %d DTW calls for %d candidates", st.DTWCalls, st.Candidates)
	}
	for trial := 0; trial < 10; trial++ {
		check(synth.Query(rng, data)[:10], 0.1+rng.Float64()*0.3)
	}
}

func TestSubseqIndexStep(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	data := synth.RandomWalkSet(rng, 10, 30)
	db, _ := buildFixture(t, data)
	dense, err := BuildSubseqIndex(db, seq.LInf, []int{10}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer dense.Close()
	sparse, err := BuildSubseqIndex(db, seq.LInf, []int{10}, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer sparse.Close()
	// 21 offsets per sequence at step 1, 5 at step 5.
	if dense.NumWindows() != 10*21 {
		t.Errorf("dense windows = %d, want 210", dense.NumWindows())
	}
	if sparse.NumWindows() != 10*5 {
		t.Errorf("sparse windows = %d, want 50", sparse.NumWindows())
	}
	if got := dense.WindowLengths(); len(got) != 1 || got[0] != 10 {
		t.Errorf("WindowLengths = %v", got)
	}
}

func TestSubseqIndexMatchesAreSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	data := synth.RandomWalkSet(rng, 20, 40)
	db, _ := buildFixture(t, data)
	si, err := BuildSubseqIndex(db, seq.LInf, []int{10}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer si.Close()
	q := data[0][5:15]
	res, err := si.Search(q, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Matches); i++ {
		if res.Matches[i].Dist < res.Matches[i-1].Dist {
			t.Fatal("matches not sorted by distance")
		}
	}
	// The query window itself must be found at distance 0... it was cut at
	// offset 5 (odd) while step 2 indexes even offsets, so instead check a
	// step-aligned cut.
	q2 := data[1][4:14]
	res2, err := si.Search(q2, 0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range res2.Matches {
		if m.ID == 1 && m.Offset == 4 && m.Dist == 0 {
			found = true
		}
	}
	if !found {
		t.Error("exact window not found at distance 0")
	}

	// Windows of two lengths at one offset, at equal distance, come out
	// ordered by length: every window of a constant record is at distance 0
	// from a constant query of the same value.
	cdb, _ := buildFixture(t, []seq.Sequence{{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}})
	csi, err := BuildSubseqIndex(cdb, seq.LInf, []int{5, 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer csi.Close()
	res3, err := csi.Search(seq.Sequence{1, 1, 1, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res3.Matches) != csi.NumWindows() {
		t.Fatalf("%d matches of %d windows", len(res3.Matches), csi.NumWindows())
	}
	for i, m := range res3.Matches {
		if m.Offset != i/2 || m.Len != 4+i%2 {
			t.Fatalf("match %d is %+v, want offset %d length %d", i, m, i/2, 4+i%2)
		}
	}
}

func TestSubseqIndexValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	data := synth.RandomWalkSet(rng, 5, 20)
	db, _ := buildFixture(t, data)
	if _, err := BuildSubseqIndex(db, seq.LInf, nil, 1); err == nil {
		t.Error("no window lengths accepted")
	}
	if _, err := BuildSubseqIndex(db, seq.LInf, []int{0}, 1); err == nil {
		t.Error("zero window length accepted")
	}
	si, err := BuildSubseqIndex(db, seq.LInf, []int{10}, 0) // step 0 -> 1
	if err != nil {
		t.Fatal(err)
	}
	defer si.Close()
	if _, err := si.Search(nil, 1); err == nil {
		t.Error("empty query accepted")
	}
}

func TestSubseqWindowsLongerThanSequences(t *testing.T) {
	db, _ := buildFixture(t, []seq.Sequence{{1, 2, 3}})
	si, err := BuildSubseqIndex(db, seq.LInf, []int{10}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer si.Close()
	if si.NumWindows() != 0 {
		t.Errorf("NumWindows = %d for too-short data", si.NumWindows())
	}
	res, err := si.Search(seq.Sequence{1, 2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 0 {
		t.Error("matches from empty window set")
	}
}

// TestAddWindowsCountsAndSaturates: the window count a build is refused by
// equals the windows the build loop enumerates, on synthetic record lengths
// with no database, and saturates at math.MaxInt instead of wrapping.
func TestAddWindowsCountsAndSaturates(t *testing.T) {
	lens := []int{1, 3, 7, 16, 64}
	for _, n := range []int{0, 1, 2, 6, 7, 15, 16, 17, 100} {
		for _, step := range []int{-1, 0, 1, 2, 3, 5, 8, math.MaxInt} {
			want := 0
			for _, w := range lens {
				for off := 0; off+w <= n; off += max(step, 1) {
					want++
					if n-off < max(step, 1) {
						break // the next offset is past n, or would wrap
					}
				}
			}
			if got := addWindows(0, n, lens, step); got != want {
				t.Fatalf("n=%d step=%d: %d windows, want %d", n, step, got, want)
			}
		}
	}
	// The served corpus's shape: 100 000 records of 128, lengths 1–64, step 1.
	wide := make([]int, 64)
	for i := range wide {
		wide[i] = i + 1
	}
	total := 0
	for i := 0; i < 100_000; i++ {
		total = addWindows(total, 128, wide, 1)
	}
	if total != 617_600_000 {
		t.Fatalf("served shape: %d windows, want 617 600 000", total)
	}
	if got := addWindows(math.MaxInt-3, math.MaxInt, []int{1, 2}, 1); got != math.MaxInt {
		t.Fatalf("near math.MaxInt: %d, want saturation", got)
	}
	if got := addWindows(0, math.MaxInt, []int{1, 2}, 1); got != math.MaxInt {
		t.Fatalf("two windows of a math.MaxInt record: %d, want saturation", got)
	}
}
