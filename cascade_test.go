package twsim_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	twsim "repro"
)

// The refinement cascade must be invisible in results: range and k-NN
// queries return matches bit-identical to the brute-force scan — which runs
// no cascade at all — for every base distance (an additive base through
// TW-Sim-Search over the flat index, see openOracle). (The cascade-off
// engine path itself is compared in internal/core, where NoCascade lives.)
func TestCascadeBruteForceOracle(t *testing.T) {
	bases := map[string]twsim.Base{"linf": twsim.BaseLInf, "l1": twsim.BaseL1, "l2sq": twsim.BaseL2Sq}
	for name, base := range bases {
		t.Run(name, func(t *testing.T) {
			data := randomWalks(211, 100, 8, 40)
			cascaded := openOracle(t, base, twsim.Options{}, false)
			defer cascaded.Close()
			ids, err := cascaded.AddBatch(data)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(17))
			for trial := 0; trial < 10; trial++ {
				q := data[rng.Intn(len(data))]
				eps := rng.Float64() * 3
				want := bruteScan(data, ids, q, base, eps, 0)
				got, err := cascaded.SearchCtx(context.Background(), q, eps, 0)
				if err != nil {
					t.Fatal(err)
				}
				if !matchesEqual(got.Matches, want) {
					t.Fatalf("trial %d eps %g: cascade %+v, brute force %+v", trial, eps, got.Matches, want)
				}
				k := 1 + rng.Intn(8)
				wantK := bruteScan(data, ids, q, base, math.Inf(1), 0)[:k]
				gotK, err := nearestK(cascaded, q, k, 0)
				if err != nil {
					t.Fatal(err)
				}
				if !matchesEqual(gotK, wantK) {
					t.Fatalf("trial %d k=%d: cascade %+v, brute force %+v", trial, k, gotK, wantK)
				}
			}
		})
	}
}

// Per-shard query totals must balance: summed over shards they equal the
// merged per-query statistics, and within each shard the tier prune counts
// plus actual DP invocations account for every candidate.
func TestShardedQueryTotals(t *testing.T) {
	data := randomWalks(307, 120, 10, 30)
	sharded, err := twsim.OpenMemSharded(twsim.ShardedOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	if _, err := sharded.AddBatch(data); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	var wantCand, wantDTW, wantPruned int64
	const queries = 8
	for i := 0; i < queries; i++ {
		res, err := sharded.Search(data[rng.Intn(len(data))], 0.3)
		if err != nil {
			t.Fatal(err)
		}
		wantCand += int64(res.Stats.Candidates)
		wantDTW += int64(res.Stats.DTWCalls)
		wantPruned += int64(res.Stats.LBPAAPruned + res.Stats.LBKeoghPruned + res.Stats.CorridorPruned)
	}
	var got twsim.QueryTotals
	for _, st := range sharded.ShardStats() {
		qt := st.Queries
		if qt.Searches != queries {
			t.Errorf("shard %d saw %d searches, want %d", st.ID, qt.Searches, queries)
		}
		perShardPruned := qt.LBPAAPruned + qt.LBKeoghPruned + qt.CorridorPruned
		if perShardPruned+qt.DTWCalls != qt.Candidates {
			t.Errorf("shard %d: prunes %d + dtw %d != candidates %d",
				st.ID, perShardPruned, qt.DTWCalls, qt.Candidates)
		}
		got.Candidates += qt.Candidates
		got.DTWCalls += qt.DTWCalls
		got.LBPAAPruned += qt.LBPAAPruned
		got.LBKeoghPruned += qt.LBKeoghPruned
		got.CorridorPruned += qt.CorridorPruned
	}
	gotPruned := got.LBPAAPruned + got.LBKeoghPruned + got.CorridorPruned
	if got.Candidates != wantCand || got.DTWCalls != wantDTW || gotPruned != wantPruned {
		t.Errorf("shard totals (cand %d, dtw %d, pruned %d) != merged stats (cand %d, dtw %d, pruned %d)",
			got.Candidates, got.DTWCalls, gotPruned, wantCand, wantDTW, wantPruned)
	}
}

// Concurrent k-NN fan-outs share pooled cascade state (refiners, DP rows)
// and the cross-shard bound; under the race detector this exercises that
// the pools and atomic counters are data-race free, and every concurrent
// caller still gets the exact sequential answer.
func TestShardedConcurrentNearestKCascade(t *testing.T) {
	data := randomWalks(401, 150, 10, 30)
	sharded, err := twsim.OpenMemSharded(twsim.ShardedOptions{Shards: 4, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	if _, err := sharded.AddBatch(data); err != nil {
		t.Fatal(err)
	}
	const workers, k = 8, 5
	queries := make([][]float64, workers)
	want := make([][]twsim.Match, workers)
	for i := range queries {
		queries[i] = data[(i*37)%len(data)]
		if want[i], err = sharded.NearestK(queries[i], k); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers*3)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				got, err := sharded.NearestK(queries[w], k)
				if err != nil {
					errs <- err
					return
				}
				if len(got) != len(want[w]) {
					errs <- fmt.Errorf("worker %d: %d matches, want %d", w, len(got), len(want[w]))
					return
				}
				for i := range got {
					if got[i] != want[w][i] {
						errs <- fmt.Errorf("worker %d rank %d: %+v, want %+v", w, i, got[i], want[w][i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
