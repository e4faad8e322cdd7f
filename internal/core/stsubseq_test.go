package core

import (
	"math/rand"
	"testing"

	"repro/internal/dtw"
	"repro/internal/seq"
	"repro/internal/synth"
)

// The ST-Filter subsequence search must find exactly the substrings (any
// offset, any length) within tolerance — verified against brute force.
func TestSTFilterSubsequencesAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	data := synth.RandomWalkSetVaryLen(rng, 15, 10, 25)
	db, _ := buildFixture(t, data)
	stf, err := BuildSTFilter(db, seq.LInf, 30)
	if err != nil {
		t.Fatal(err)
	}
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
			for off := 0; off < len(s); off++ {
				for ln := 1; off+ln <= len(s); ln++ {
					d := dtw.Distance(s[off:off+ln], q, seq.LInf)
					if d <= eps {
						want[key{seq.ID(i), off, ln}] = d
					}
				}
			}
		}
		res, err := stf.SearchSubsequences(q, eps)
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
		return res.Stats
	}
	randomQuery := func() (seq.Sequence, float64) {
		q := synth.Query(rng, data)
		if len(q) > 8 {
			q = q[:8]
		}
		return q, 0.05 + rng.Float64()*0.25
	}
	for trial := 0; trial < 8; trial++ {
		check(randomQuery())
	}

	// Records removed after the build stay in the suffix tree; a search
	// skips their substrings, without a DTW call, instead of failing.
	for _, id := range []seq.ID{2, 5, 11} {
		if _, err := db.Delete(id); err != nil {
			t.Fatal(err)
		}
		removed[id] = true
	}
	if st := check(data[5][:6], 0.1); st.DTWCalls >= st.Candidates {
		t.Fatalf("removed record refined: %d DTW calls for %d candidates", st.DTWCalls, st.Candidates)
	}
	for trial := 0; trial < 8; trial++ {
		check(randomQuery())
	}
}

func TestSTFilterSubsequencesEmptyQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	data := synth.RandomWalkSet(rng, 5, 15)
	db, _ := buildFixture(t, data)
	stf, err := BuildSTFilter(db, seq.LInf, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stf.SearchSubsequences(nil, 1); err == nil {
		t.Error("empty query accepted")
	}
}

func TestSTFilterSubsequencesFindsPlantedPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	pattern := seq.Sequence{2, 8, 2, 8, 2}
	var data []seq.Sequence
	for i := 0; i < 10; i++ {
		s := synth.RandomWalk(rng, 60)
		if i == 4 {
			copy(s[30:], pattern)
		}
		data = append(data, s)
	}
	db, _ := buildFixture(t, data)
	stf, err := BuildSTFilter(db, seq.LInf, 100)
	if err != nil {
		t.Fatal(err)
	}
	res, err := stf.SearchSubsequences(pattern, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range res.Matches {
		if m.ID == 4 && m.Offset == 30 && m.Len == 5 {
			found = true
		}
	}
	if !found {
		t.Fatalf("planted pattern not located; matches: %+v", res.Matches)
	}
}

// The subsequence search via the suffix tree and via the window feature
// index must agree on the window lengths both cover.
func TestSTFilterAndSubseqIndexAgreeOnCommonLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	data := synth.RandomWalkSetVaryLen(rng, 10, 15, 25)
	db, _ := buildFixture(t, data)
	stf, err := BuildSTFilter(db, seq.LInf, 40)
	if err != nil {
		t.Fatal(err)
	}
	si, err := BuildSubseqIndex(db, seq.LInf, []int{6}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer si.Close()
	for trial := 0; trial < 5; trial++ {
		q := synth.Query(rng, data)[:6]
		eps := 0.1 + rng.Float64()*0.2
		stRes, err := stf.SearchSubsequences(q, eps)
		if err != nil {
			t.Fatal(err)
		}
		siRes, err := si.Search(q, eps)
		if err != nil {
			t.Fatal(err)
		}
		type key struct {
			id      seq.ID
			off, ln int
		}
		st := map[key]bool{}
		for _, m := range stRes.Matches {
			if m.Len == 6 {
				st[key{m.ID, m.Offset, m.Len}] = true
			}
		}
		wi := map[key]bool{}
		for _, m := range siRes.Matches {
			wi[key{m.ID, m.Offset, m.Len}] = true
		}
		if len(st) != len(wi) {
			t.Fatalf("trial %d: suffix tree found %d length-6 windows, feature index %d",
				trial, len(st), len(wi))
		}
		for k := range st {
			if !wi[k] {
				t.Fatalf("window %+v found by suffix tree only", k)
			}
		}
	}
}

func TestOccurrencesMappingViaSearch(t *testing.T) {
	// Two sequences sharing a common prefix: subsequence search for that
	// prefix must report occurrences in both.
	data := []seq.Sequence{
		{1, 2, 3, 9, 9},
		{1, 2, 3, 4, 4},
		{7, 7, 1, 2, 3},
	}
	db, _ := buildFixture(t, data)
	stf, err := BuildSTFilter(db, seq.LInf, 200)
	if err != nil {
		t.Fatal(err)
	}
	res, err := stf.SearchSubsequences(seq.Sequence{1, 2, 3}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	got := map[[2]int]bool{}
	for _, m := range res.Matches {
		if m.Len == 3 {
			got[[2]int{int(m.ID), m.Offset}] = true
		}
	}
	for _, want := range [][2]int{{0, 0}, {1, 0}, {2, 2}} {
		if !got[want] {
			t.Errorf("occurrence %v not found (got %v)", want, got)
		}
	}
}
