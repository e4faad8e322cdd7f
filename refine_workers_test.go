package twsim_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	twsim "repro"
)

// TestRefineWorkersPublicOracle: every (engine, RefineWorkers) combination
// returns Search and NearestK results bit-identical to the brute-force scan,
// and therefore to one another, for every base distance (an additive base
// through TW-Sim-Search over the flat index, see openOracle). RefineWorkers is
// accepted and ignored — every query refines on the goroutine that serves
// it — so the single database's k-NN work counters at RefineWorkers 4 must
// equal those at 1 too.
func TestRefineWorkersPublicOracle(t *testing.T) {
	bases := map[string]twsim.Base{"linf": twsim.BaseLInf, "l1": twsim.BaseL1, "l2sq": twsim.BaseL2Sq}
	for name, base := range bases {
		t.Run(name, func(t *testing.T) {
			data := randomWalks(307, 90, 6, 35)

			type variant struct {
				name    string
				backend oracleBackend
			}
			var variants []variant
			// Every variant assigns the i-th sequence ID i (a sharded
			// round-robin load interleaves back to insertion order), so one
			// ID slice serves the brute-force reference for all of them.
			ids := make([]twsim.ID, len(data))
			for i := range ids {
				ids[i] = twsim.ID(i)
			}
			add := func(vname string, opts twsim.Options, sharded bool) {
				db := openOracle(t, base, opts, sharded)
				t.Cleanup(func() { db.Close() })
				if _, err := db.AddBatch(data); err != nil {
					t.Fatal(err)
				}
				variants = append(variants, variant{vname, db})
			}
			add("workers=1", twsim.Options{RefineWorkers: 1}, false)
			add("workers=4", twsim.Options{RefineWorkers: 4}, false)
			add("workers=4+cache", twsim.Options{RefineWorkers: 4, SeqCacheBytes: 1 << 20}, false)
			add("sharded3+workers=4", twsim.Options{RefineWorkers: 4}, true)
			add("sharded3+serial+cache", twsim.Options{RefineWorkers: 1, SeqCacheBytes: 1 << 20}, true)

			rng := rand.New(rand.NewSource(71))
			knnStats := map[string]twsim.QueryStats{}
			for trial := 0; trial < 8; trial++ {
				q := data[rng.Intn(len(data))]
				eps := rng.Float64() * 2.5
				k := 1 + rng.Intn(8)
				want := bruteScan(data, ids, q, base, eps, 0)
				wantK := bruteScan(data, ids, q, base, math.Inf(1), 0)[:k]
				// Repeat each variant's queries twice so the second pass runs
				// against warm pools. (The "+cache" variants set the ignored
				// SeqCacheBytes; their names stay for the test floor.)
				for _, v := range variants {
					for pass := 0; pass < 2; pass++ {
						got, err := v.backend.SearchCtx(context.Background(), q, eps, 0)
						if err != nil {
							t.Fatalf("%s: %v", v.name, err)
						}
						if !matchesEqual(got.Matches, want) {
							t.Fatalf("trial %d eps %g %s pass %d: %+v, brute force %+v",
								trial, eps, v.name, pass, got.Matches, want)
						}
						res, err := v.backend.NearestKCtx(context.Background(), q, k, 0)
						if err != nil {
							t.Fatalf("%s: %v", v.name, err)
						}
						gotK := res.Matches
						knnStats[v.name] = workOf(res.Stats)
						if !matchesEqual(gotK, wantK) {
							t.Fatalf("trial %d k=%d %s pass %d: %+v, brute force %+v",
								trial, k, v.name, pass, gotK, wantK)
						}
					}
				}
				if one, four := knnStats["workers=1"], knnStats["workers=4"]; one != four {
					t.Fatalf("trial %d k=%d: k-NN stats at RefineWorkers 4 %+v, at 1 %+v", trial, k, four, one)
				}
			}
		})
	}
}

// workOf is a query's work counters: its stats without the wall times and
// the buffer-pool reads, which vary with timing and with the pool's state.
func workOf(s twsim.QueryStats) twsim.QueryStats {
	s.Wall, s.FilterWall, s.RefineWall = 0, 0, 0
	s.DataReads, s.DataMisses, s.DataSeqMisses = 0, 0, 0
	s.IndexReads, s.IndexMisses, s.IndexSeqMisses = 0, 0, 0
	return s
}

// TestStorageStatsSurface: the public StorageStats snapshot reports the data
// pool's activity — queries and reads by ID both move it — and carries
// nothing else: there is no sequence cache to report.
func TestStorageStatsSurface(t *testing.T) {
	data := randomWalks(311, 40, 8, 20)
	db, err := twsim.OpenMem(twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.AddBatch(data); err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		if _, err := db.Search(data[0], 0.4); err != nil {
			t.Fatal(err)
		}
	}
	st := db.StorageStats()
	if st.Data.Reads == 0 {
		t.Fatalf("no pool activity recorded: %+v", st)
	}
	for pass := 0; pass < 2; pass++ {
		before := db.StorageStats().Data.Reads
		if _, err := db.Get(0); err != nil {
			t.Fatal(err)
		}
		if after := db.StorageStats().Data.Reads; after == before {
			t.Fatalf("Get %d of one ID read no page: nothing may sit between Get and the heap", pass)
		}
	}

	sdb, err := twsim.OpenMemSharded(twsim.ShardedOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sdb.Close()
	if _, err := sdb.AddBatch(data); err != nil {
		t.Fatal(err)
	}
	if _, err := sdb.Search(data[0], 0.4); err != nil {
		t.Fatal(err)
	}
	if st := sdb.StorageStats(); st.Data.Reads == 0 {
		t.Fatalf("sharded StorageStats recorded no reads: %+v", st)
	}
}
