package twsim_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	twsim "repro"
	"repro/internal/core"
	"repro/internal/seq"
	"repro/internal/seqdb"
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

// rtreeNearestK stores data in an in-memory heap with its envelopes and
// indexes it in the paper's R-tree (core.FeatureIndex), dealt round-robin
// over parts trees. The k-NN it returns is TW-Sim-Search's over each tree in
// turn under one shared bound, merged by (Dist, ID) and cut to k — the way
// the shard engine merges its shards' walks.
func rtreeNearestK(t *testing.T, data [][]float64, base twsim.Base, band, parts int) ([]twsim.ID, func(q []float64, k int) ([]twsim.Match, error)) {
	t.Helper()
	store, err := seqdb.NewMem(seqdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	envs := core.NewEnvStore()
	trees := make([]*core.FeatureIndex, parts)
	for i := range trees {
		if trees[i], err = core.NewFeatureIndex(core.IndexOptions{}); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { trees[i].Close() })
	}
	ids := make([]twsim.ID, len(data))
	for i, s := range data {
		if ids[i], err = store.Append(s); err != nil {
			t.Fatal(err)
		}
		pe, _ := seq.ExtractPAAEnvelope(s)
		envs.Put(ids[i], pe)
		if err := trees[i%parts].Insert(ids[i], s); err != nil {
			t.Fatal(err)
		}
	}
	return ids, func(q []float64, k int) ([]twsim.Match, error) {
		bound := core.NewSharedBound()
		var all []twsim.Match
		for _, tree := range trees {
			tw := &core.TWSimSearch{DB: store, Index: tree, Base: base, Band: band, Envs: envs}
			ms, err := tw.NearestKShared(q, k, bound)
			if err != nil {
				return nil, err
			}
			all = append(all, ms...)
		}
		sortByDistID(all)
		return all[:min(k, len(all))], nil
	}
}

// TestNearestKOrderingOracle is the envelope-ordering bit-identity matrix:
// for every base × backend shape × engine × band × worker budget, the
// envelope-sharpened k-NN must return exactly the brute-force top-k — same
// IDs, same float64 distances, same order — for every query and k. The
// ordering tier re-keys candidates by sound lower bounds; it may only
// reorder and skip work, never change an answer (DESIGN.md §12). (The ordering-off engine path itself is
// compared in internal/core, where NoCascade lives.) The flat engine is a
// database's own index; the guttman engine is the paper's R-tree under the
// same TW-Sim-Search (rtreeNearestK), in one partition or, for the sharded
// shape, three walked under one shared bound.
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
							var ids []twsim.ID
							var knn func(q []float64, k int) ([]twsim.Match, error)
							if engine == "guttman" {
								ids, knn = rtreeNearestK(t, data, base, band, map[bool]int{false: 1, true: 3}[sharded])
							} else {
								db := openBackend(t, twsim.Options{Base: base, Band: band, RefineWorkers: workers}, sharded)
								defer db.Close()
								var err error
								if ids, err = db.AddBatch(data); err != nil {
									t.Fatal(err)
								}
								knn = func(q []float64, k int) ([]twsim.Match, error) { return nearestK(db, q, k, band) }
							}
							for qi, q := range qs {
								all := bruteScan(data, ids, q, base, math.Inf(1), band)
								for _, k := range []int{1, 7} {
									got, err := knn(q, k)
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
