package twsim_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	twsim "repro"
)

// buildPair loads the same data into a single DB and an N-shard ShardedDB,
// returning both plus the sharded-ID → single-ID mapping (insertion order
// is the shared key: the i-th inserted sequence has single ID i).
func buildPair(t *testing.T, data [][]float64, shards int, base twsim.Base) (*twsim.DB, *twsim.ShardedDB, map[twsim.ID]twsim.ID) {
	t.Helper()
	single, err := twsim.OpenMem(twsim.Options{Base: base})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { single.Close() })
	sharded, err := twsim.OpenMemSharded(twsim.ShardedOptions{
		Options: twsim.Options{Base: base},
		Shards:  shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sharded.Close() })
	mapping := make(map[twsim.ID]twsim.ID, len(data))
	for _, v := range data {
		sid, err := single.Add(v)
		if err != nil {
			t.Fatal(err)
		}
		gid, err := sharded.Add(v)
		if err != nil {
			t.Fatal(err)
		}
		mapping[gid] = sid
	}
	return single, sharded, mapping
}

// TestShardedSearchOracle: for randomized datasets and tolerances, the
// sharded range search returns exactly the single-database result (IDs
// modulo the mapping, distances bitwise equal) for every base distance and
// shard count.
func TestShardedSearchOracle(t *testing.T) {
	bases := map[string]twsim.Base{"linf": twsim.BaseLInf, "l1": twsim.BaseL1, "l2sq": twsim.BaseL2Sq}
	for _, shards := range []int{1, 3, 8} {
		for name, base := range bases {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, name), func(t *testing.T) {
				data := randomWalks(int64(shards)*100+7, 90, 12, 40)
				single, sharded, mapping := buildPair(t, data, shards, base)
				rng := rand.New(rand.NewSource(int64(shards) + 13))
				for trial := 0; trial < 12; trial++ {
					q := data[rng.Intn(len(data))]
					eps := rng.Float64() * 2
					want, err := single.Search(q, eps)
					if err != nil {
						t.Fatal(err)
					}
					got, err := sharded.Search(q, eps)
					if err != nil {
						t.Fatal(err)
					}
					if len(got.Matches) != len(want.Matches) {
						t.Fatalf("trial %d: sharded %d matches, single %d",
							trial, len(got.Matches), len(want.Matches))
					}
					for i, m := range got.Matches {
						w := want.Matches[i]
						if mapping[m.ID] != w.ID || m.Dist != w.Dist {
							t.Fatalf("trial %d match %d: sharded (id %d -> %d, dist %g), single (id %d, dist %g)",
								trial, i, m.ID, mapping[m.ID], m.Dist, w.ID, w.Dist)
						}
					}
					if got.Stats.Results != len(got.Matches) {
						t.Fatalf("trial %d: merged stats report %d results, have %d",
							trial, got.Stats.Results, len(got.Matches))
					}
				}
			})
		}
	}
}

// TestShardedNearestKOracle: the merged k-NN across shards (with the shared
// best-k bound pruning laggard shards) equals the single-database answer,
// unbanded and banded, up to a k far beyond the data — every shard must
// keep the caller's k (shrinking it per shard would publish an unsound
// shared bound) without sizing anything by it.
func TestShardedNearestKOracle(t *testing.T) {
	ctx := context.Background()
	for _, shards := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			data := randomWalks(int64(shards)*57+3, 80, 10, 35)
			single, sharded, mapping := buildPair(t, data, shards, twsim.BaseLInf)
			rng := rand.New(rand.NewSource(int64(shards) * 31))
			for _, band := range []int{0, 2} {
				for _, k := range []int{1, 3, 10, 80, 200, 1 << 40} {
					q := data[rng.Intn(len(data))]
					want, err := single.NearestKCtx(ctx, q, k, band)
					if err != nil {
						t.Fatal(err)
					}
					got, err := sharded.NearestKCtx(ctx, q, k, band)
					if err != nil {
						t.Fatal(err)
					}
					if wantLen := min(k, len(data)); len(want.Matches) != wantLen {
						t.Fatalf("band=%d k=%d: single %d matches, want %d", band, k, len(want.Matches), wantLen)
					}
					if len(got.Matches) != len(want.Matches) {
						t.Fatalf("band=%d k=%d: sharded %d matches, single %d", band, k, len(got.Matches), len(want.Matches))
					}
					for i, g := range got.Matches {
						w := want.Matches[i]
						if mapping[g.ID] != w.ID || g.Dist != w.Dist {
							t.Fatalf("band=%d k=%d rank %d: sharded (id %d -> %d, dist %g), single (id %d, dist %g)",
								band, k, i, g.ID, mapping[g.ID], g.Dist, w.ID, w.Dist)
						}
					}
				}
			}
		})
	}
}

// TestShardedBatchOracle: AddBatch distributes across shards and
// SearchBatch merges per-query exactly like individual Search calls.
func TestShardedBatchOracle(t *testing.T) {
	data := randomWalks(99, 70, 10, 30)
	sharded, err := twsim.OpenMemSharded(twsim.ShardedOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	ids, err := sharded.AddBatch(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(data) {
		t.Fatalf("AddBatch returned %d ids for %d sequences", len(ids), len(data))
	}
	for i, id := range ids {
		got, err := sharded.Get(id)
		if err != nil {
			t.Fatalf("Get(%d): %v", id, err)
		}
		if len(got) != len(data[i]) || got[0] != data[i][0] {
			t.Fatalf("sequence %d: round-trip mismatch", i)
		}
		if want := int(id) % sharded.NumShards(); sharded.ShardID(id) != want {
			t.Fatalf("ShardID(%d) = %d, want %d", id, sharded.ShardID(id), want)
		}
	}
	queries := data[:15]
	const eps = 0.4
	batch, err := sharded.SearchBatch(queries, eps, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		want, err := sharded.Search(q, eps)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch[i].Matches) != len(want.Matches) {
			t.Fatalf("query %d: batch %d matches, single %d", i, len(batch[i].Matches), len(want.Matches))
		}
		for j := range want.Matches {
			if batch[i].Matches[j] != want.Matches[j] {
				t.Fatalf("query %d match %d differs", i, j)
			}
		}
	}
}

// TestShardedPartitionerDeterminism: the ID routing survives Close/Open —
// every sequence is still fetchable under its old ID, removed sequences
// stay gone, and searches still agree with a single-database oracle.
func TestShardedPartitionerDeterminism(t *testing.T) {
	dir := t.TempDir()
	const shards = 3
	data := randomWalks(41, 60, 10, 30)
	sdb, err := twsim.CreateSharded(dir, twsim.ShardedOptions{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	// Mix single adds and a batch so both placement paths are exercised.
	var ids []twsim.ID
	for _, v := range data[:20] {
		id, err := sdb.Add(v)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	batchIDs, err := sdb.AddBatch(data[20:])
	if err != nil {
		t.Fatal(err)
	}
	ids = append(ids, batchIDs...)
	removed := map[twsim.ID]bool{ids[3]: true, ids[25]: true, ids[47]: true}
	for id := range removed {
		ok, err := sdb.Remove(id)
		if err != nil || !ok {
			t.Fatalf("Remove(%d) = %v, %v", id, ok, err)
		}
	}
	shardOf := make(map[twsim.ID]int, len(ids))
	for _, id := range ids {
		shardOf[id] = sdb.ShardID(id)
	}
	if err := sdb.Close(); err != nil {
		t.Fatal(err)
	}

	if !twsim.IsSharded(dir) {
		t.Fatal("IsSharded = false for a sharded directory")
	}
	reopened, err := twsim.OpenSharded(dir, twsim.ShardedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if rs := reopened.LastRepair(); rs.Repaired() {
		t.Fatalf("clean reopen reported repair: %+v", rs)
	}
	if reopened.NumShards() != shards {
		t.Fatalf("reopened with %d shards, want %d", reopened.NumShards(), shards)
	}
	if got, want := reopened.Len(), len(ids)-len(removed); got != want {
		t.Fatalf("reopened Len = %d, want %d", got, want)
	}
	for i, id := range ids {
		if reopened.ShardID(id) != shardOf[id] {
			t.Fatalf("ShardID(%d) changed across reopen: %d -> %d", id, shardOf[id], reopened.ShardID(id))
		}
		values, err := reopened.Get(id)
		if removed[id] {
			if err == nil {
				t.Fatalf("removed sequence %d still fetchable", id)
			}
			continue
		}
		if err != nil {
			t.Fatalf("Get(%d): %v", id, err)
		}
		if len(values) != len(data[i]) || values[len(values)-1] != data[i][len(data[i])-1] {
			t.Fatalf("sequence %d: values changed across reopen", i)
		}
	}
	if err := reopened.Verify(); err != nil {
		t.Fatalf("Verify after reopen: %v", err)
	}

	// Searches on the reopened database still match a fresh single-DB
	// oracle over the surviving sequences.
	single, err := twsim.OpenMem(twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	surviving := make(map[twsim.ID]twsim.ID) // sharded ID -> oracle ID
	for i, id := range ids {
		if removed[id] {
			continue
		}
		oid, err := single.Add(data[i])
		if err != nil {
			t.Fatal(err)
		}
		surviving[id] = oid
	}
	for trial := 0; trial < 5; trial++ {
		q := data[trial*7]
		want, err := single.Search(q, 0.8)
		if err != nil {
			t.Fatal(err)
		}
		got, err := reopened.Search(q, 0.8)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Matches) != len(want.Matches) {
			t.Fatalf("trial %d: reopened %d matches, oracle %d", trial, len(got.Matches), len(want.Matches))
		}
		for i := range got.Matches {
			if surviving[got.Matches[i].ID] != want.Matches[i].ID || got.Matches[i].Dist != want.Matches[i].Dist {
				t.Fatalf("trial %d match %d differs", trial, i)
			}
		}
	}
}

// TestOpenShardedCountMismatch: the shard count is pinned at creation.
func TestOpenShardedCountMismatch(t *testing.T) {
	dir := t.TempDir()
	sdb, err := twsim.CreateSharded(dir, twsim.ShardedOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := sdb.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := twsim.OpenSharded(dir, twsim.ShardedOptions{Shards: 2}); err == nil {
		t.Fatal("OpenSharded with a conflicting shard count succeeded")
	}
	if _, err := twsim.OpenSharded(t.TempDir(), twsim.ShardedOptions{}); err == nil {
		t.Fatal("OpenSharded on a non-sharded directory succeeded")
	}
}

// TestShardedConcurrentStorm hammers a sharded database with concurrent
// per-shard writers and fan-out readers; run under -race it checks the
// per-shard locking discipline, and afterwards the contents must verify.
func TestShardedConcurrentStorm(t *testing.T) {
	sdb, err := twsim.OpenMemSharded(twsim.ShardedOptions{Shards: 4, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sdb.Close()
	seedData := randomWalks(7, 40, 10, 24)
	if _, err := sdb.AddBatch(seedData); err != nil {
		t.Fatal(err)
	}

	const (
		writers   = 4
		readers   = 4
		opsPerG   = 30
		removeMod = 5
	)
	errs := make(chan error, writers+readers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			walks := randomWalks(seed, opsPerG, 8, 20)
			var mine []twsim.ID
			for i, v := range walks {
				id, err := sdb.Add(v)
				if err != nil {
					errs <- fmt.Errorf("writer add: %w", err)
					return
				}
				mine = append(mine, id)
				if i%removeMod == removeMod-1 {
					if _, err := sdb.Remove(mine[len(mine)/2]); err != nil {
						errs <- fmt.Errorf("writer remove: %w", err)
						return
					}
				}
			}
		}(int64(1000 + w))
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < opsPerG; i++ {
				q := seedData[rng.Intn(len(seedData))]
				switch i % 3 {
				case 0:
					if _, err := sdb.Search(q, rng.Float64()); err != nil {
						errs <- fmt.Errorf("reader search: %w", err)
						return
					}
				case 1:
					if _, err := sdb.NearestK(q, 5); err != nil {
						errs <- fmt.Errorf("reader knn: %w", err)
						return
					}
				default:
					sdb.Len()
					if _, err := sdb.Get(twsim.ID(rng.Intn(len(seedData)))); err != nil {
						// Concurrent removal makes misses legitimate; only
						// report nothing — Get errors here are expected.
						_ = err
					}
				}
			}
		}(int64(2000 + r))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := sdb.Verify(); err != nil {
		t.Fatalf("Verify after storm: %v", err)
	}
}
