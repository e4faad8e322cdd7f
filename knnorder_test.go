package twsim_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	twsim "repro"
)

// knnCorpus builds a deterministic random-walk corpus plus near-miss
// queries shared by the ordering-oracle tests.
func knnCorpus(rng *rand.Rand, n, length, queries int) (data, qs [][]float64) {
	data = make([][]float64, n)
	for i := range data {
		s := make([]float64, length)
		v := rng.NormFloat64()
		for j := range s {
			v += rng.NormFloat64() * 0.1
			s[j] = v
		}
		data[i] = s
	}
	qs = make([][]float64, queries)
	for i := range qs {
		q := append([]float64(nil), data[rng.Intn(n)]...)
		for j := range q {
			q[j] += (rng.Float64() - 0.5) * 0.1
		}
		qs[i] = q
	}
	return data, qs
}

// TestNearestKOrderingOracle is the envelope-ordering bit-identity matrix:
// for every base × backend shape × engine × band × worker budget, the
// envelope-sharpened k-NN must return exactly the brute-force top-k — same
// IDs, same float64 distances, same order — for every query and k. The
// ordering tier re-keys candidates by sound lower bounds; it may only
// reorder and skip work, never change an answer (DESIGN.md §12). (The ordering-off engine path itself is
// compared in internal/core, where NoCascade lives.)
func TestNearestKOrderingOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(811))
	data, qs := knnCorpus(rng, 120, 64, 4)

	for _, base := range []twsim.Base{twsim.BaseLInf, twsim.BaseL1, twsim.BaseL2Sq} {
		for _, sharded := range []bool{false, true} {
			for _, engine := range []string{"guttman", "flat"} {
				for _, band := range []int{0, 8} {
					for _, workers := range []int{1, 4} {
						name := fmt.Sprintf("base=%v/sharded=%v/engine=%s/band=%d/workers=%d",
							base, sharded, engine, band, workers)
						t.Run(name, func(t *testing.T) {
							opts := twsim.Options{Base: base, Band: band, RefineWorkers: workers}
							db := openEngine(t, engine, opts, sharded)
							defer db.Close()
							ids, err := db.AddBatch(data)
							if err != nil {
								t.Fatal(err)
							}
							for qi, q := range qs {
								all := bruteScan(data, ids, q, base, math.Inf(1), band)
								for _, k := range []int{1, 7} {
									got, err := nearestK(db, q, k, band)
									if err != nil {
										t.Fatal(err)
									}
									if !matchesEqual(got, all[:k]) {
										t.Fatalf("query %d k=%d: ordered k-NN diverged from brute force: got=%v want=%v",
											qi, k, got, all[:k])
									}
								}
							}
						})
					}
				}
			}
		}
	}
}

// TestNearestKMmapOracle: a database answers k-NN and range
// queries bit-identically whether its snapshot slab is mmap'd or read
// eagerly through the TWSIM_NO_MMAP fallback.
func TestNearestKMmapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(911))
	data, qs := knnCorpus(rng, 150, 64, 4)
	dir := t.TempDir()

	opts := twsim.Options{Band: 8}
	db, err := twsim.Create(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddAll(data); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	type answers struct {
		knn     [][]twsim.Match
		matches [][]twsim.Match
	}
	collect := func() answers {
		db, err := twsim.Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		var a answers
		for _, q := range qs {
			ms, err := nearestK(db, q, 5, 8)
			if err != nil {
				t.Fatal(err)
			}
			a.knn = append(a.knn, ms)
			r, err := db.Search(q, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			a.matches = append(a.matches, r.Matches)
		}
		return a
	}

	mapped := collect()
	t.Setenv("TWSIM_NO_MMAP", "1")
	fallback := collect()

	for qi := range qs {
		if !matchesEqual(mapped.knn[qi], fallback.knn[qi]) {
			t.Fatalf("query %d: k-NN diverged between mmap and fallback opens", qi)
		}
		if !matchesEqual(mapped.matches[qi], fallback.matches[qi]) {
			t.Fatalf("query %d: Search diverged between mmap and fallback opens", qi)
		}
	}
}
