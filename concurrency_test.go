package twsim_test

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"testing"
	"time"

	twsim "repro"
)

// TestDBConcurrentStorm shares one bare *DB — no wrapper, no external lock —
// between writers looping Add / AddBatch / Remove / Flush and readers calling
// every read-side public method, with the result cache off and on. The
// readers run for as long as the writers do, so a writer is always pending:
// sync.RWMutex then refuses new readers, and a public method that re-entered
// the read lock would deadlock — the hard deadline turns that into a failure.
// Afterwards the database must Verify clean and a range query wide enough to
// match everything must equal the brute-force scan of the survivors. Under
// -race this is the check that DB's own lock covers every path.
func TestDBConcurrentStorm(t *testing.T) {
	for name, cacheBytes := range map[string]int64{"cache=off": 0, "cache=on": 1 << 20} {
		t.Run(name, func(t *testing.T) {
			db, err := twsim.Create(t.TempDir(), twsim.Options{WAL: true, ResultCacheBytes: cacheBytes})
			if err != nil {
				t.Fatal(err)
			}
			// Closed at the end, not deferred: Close takes the lock, and after
			// a deadlock it would hang the failure the deadline just reported.
			seed := randomWalks(2201, 60, 8, 20)
			seedIDs, err := db.AddBatch(seed)
			if err != nil {
				t.Fatal(err)
			}

			// live is what a never-crashed scan must find at the end: the
			// seed (never removed) plus every writer's surviving adds.
			var liveMu sync.Mutex
			live := make(map[twsim.ID][]float64)
			for i, id := range seedIDs {
				live[id] = seed[i]
			}

			const writers, readers, writerOps = 3, 4, 24
			errs := make(chan error, writers+readers)
			writersDone := make(chan struct{})
			var wwg, rwg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wwg.Add(1)
				go func(w int) {
					defer wwg.Done()
					walks := randomWalks(int64(2300+w), 3*writerOps, 8, 20)
					var mine []twsim.ID
					record := func(ids []twsim.ID, vals [][]float64) {
						liveMu.Lock()
						for i, id := range ids {
							live[id] = vals[i]
						}
						liveMu.Unlock()
						mine = append(mine, ids...)
					}
					for i := 0; i < writerOps; i++ {
						switch i % 4 {
						case 0, 1:
							v := walks[3*i]
							id, err := db.Add(v)
							if err != nil {
								errs <- fmt.Errorf("Add: %w", err)
								return
							}
							record([]twsim.ID{id}, [][]float64{v})
						case 2:
							batch := walks[3*i : 3*i+3]
							ids, err := db.AddBatch(batch)
							if err != nil {
								errs <- fmt.Errorf("AddBatch: %w", err)
								return
							}
							record(ids, batch)
						default:
							victim := mine[len(mine)/2]
							mine = append(mine[:len(mine)/2], mine[len(mine)/2+1:]...)
							ok, err := db.Remove(victim)
							if err != nil || !ok {
								errs <- fmt.Errorf("Remove(%d) = %v, %v", victim, ok, err)
								return
							}
							liveMu.Lock()
							delete(live, victim)
							liveMu.Unlock()
							if err := db.Flush(); err != nil {
								errs <- fmt.Errorf("Flush: %w", err)
								return
							}
						}
					}
				}(w)
			}
			for r := 0; r < readers; r++ {
				rwg.Add(1)
				go func(r int) {
					defer rwg.Done()
					for i := r; ; i++ {
						select {
						case <-writersDone:
							return
						default:
						}
						if err := readEverything(db, seed, seedIDs, i); err != nil {
							errs <- err
							return
						}
					}
				}(r)
			}

			finished := make(chan struct{})
			go func() {
				wwg.Wait()
				close(writersDone)
				rwg.Wait()
				close(finished)
			}()
			select {
			case <-finished:
			case <-time.After(2 * time.Minute):
				t.Fatal("storm did not finish: a public method re-entered DB's lock behind a pending writer, or a writer never released it")
			}
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}

			if err := db.Verify(); err != nil {
				t.Fatalf("Verify after storm: %v", err)
			}
			ids := make([]twsim.ID, 0, len(live))
			for id := range live {
				ids = append(ids, id)
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			data := make([][]float64, len(ids))
			for i, id := range ids {
				data[i] = live[id]
			}
			if db.Len() != len(ids) {
				t.Fatalf("Len = %d, want %d survivors", db.Len(), len(ids))
			}
			q := seed[7]
			res, err := db.SearchCtx(nil, q, 1e9, 0)
			if err != nil {
				t.Fatal(err)
			}
			if want := bruteScan(data, ids, q, twsim.BaseLInf, 1e9, 0); !matchesEqual(res.Matches, want) {
				t.Fatalf("full range query returned %d matches, brute-force scan of the survivors %d (or distances differ)", len(res.Matches), len(want))
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// readEverything calls one read-side public method of db per step, cycling
// through all of them. The seed sequences are never removed, so reads
// addressed to them must succeed whatever the writers are doing.
func readEverything(db *twsim.DB, seed [][]float64, seedIDs []twsim.ID, step int) error {
	q, id := seed[step%len(seed)], seedIDs[step%len(seedIDs)]
	switch step % 12 {
	case 0:
		if _, err := db.SearchCtx(nil, q, 0.5, 0); err != nil {
			return fmt.Errorf("SearchCtx: %w", err)
		}
	case 1:
		if res, err := db.NearestKCtx(nil, q, 5, 2); err != nil || len(res.Matches) != 5 {
			return fmt.Errorf("NearestKCtx: %v (want 5 matches)", err)
		}
	case 2:
		for _, s := range seed[:3] {
			if _, err := db.SearchCtx(nil, s, 0.5, 0); err != nil {
				return fmt.Errorf("SearchCtx: %w", err)
			}
		}
	case 3:
		if _, err := db.Get(id); err != nil {
			return fmt.Errorf("Get(%d): %w", id, err)
		}
	case 4:
		if d, err := db.Distance(id, q); err != nil || d != 0 {
			return fmt.Errorf("Distance(%d, itself) = %g, %v", id, d, err)
		}
	case 5:
		if n := db.Len(); n < len(seed) {
			return fmt.Errorf("Len = %d, below the %d seed sequences", n, len(seed))
		}
	case 6:
		db.StorageStats()
		db.IndexEngineStats()
		db.WALStats()
	case 7:
		if err := db.Verify(); err != nil {
			return fmt.Errorf("Verify beside writers: %w", err)
		}
	case 8:
		idx, err := db.BuildSubseqIndex([]int{8}, 4)
		if err != nil {
			return fmt.Errorf("BuildSubseqIndex: %w", err)
		}
		// A window whose source was removed since the build is skipped,
		// so the search must succeed beside writers.
		_, err = idx.Search(q[:8], 0.05)
		idx.Close()
		if err != nil {
			return fmt.Errorf("SubseqIndex.Search: %w", err)
		}
	case 9:
		if _, err := db.WriteReplSnapshot(io.Discard); err != nil {
			return fmt.Errorf("WriteReplSnapshot: %w", err)
		}
	case 10:
		if _, err := db.Search(q, 0.2); err != nil {
			return fmt.Errorf("Search: %w", err)
		}
	default:
		if _, err := db.NearestK(q, 3); err != nil {
			return fmt.Errorf("NearestK: %w", err)
		}
	}
	return nil
}

// TestShardedWritersShareFsyncs: concurrent writers of one database must
// reach the WAL's group commit — apply under the lock, wait for the fsync
// outside it — on a bare DB and through a one-shard ShardedDB alike. A write
// path that holds its lock across the fsync gives every Add a batch of its
// own, and fsyncs equal records.
func TestShardedWritersShareFsyncs(t *testing.T) {
	opts := twsim.Options{WAL: true}
	single, err := twsim.Create(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	sharded, err := twsim.CreateSharded(t.TempDir(), twsim.ShardedOptions{Options: opts, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	for name, b := range map[string]twsim.Backend{"db": single, "sharded": sharded} {
		const writers, adds = 8, 40
		errs := make(chan error, writers)
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for _, v := range randomWalks(int64(2400+w), adds, 8, 16) {
					if _, err := b.Add(v); err != nil {
						errs <- err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("%s: %v", name, err)
		}
		st := b.WALStats()
		if st.Records != writers*adds {
			t.Fatalf("%s: %d WAL records, want %d", name, st.Records, writers*adds)
		}
		if st.Fsyncs >= st.Records {
			t.Errorf("%s: %d fsyncs for %d records: concurrent writers never shared one", name, st.Fsyncs, st.Records)
		}
	}
}
