package twsim_test

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	twsim "repro"
)

// cacheBackend abstracts the two engines for the coherence tests. mu
// serializes writers against reader pairs: the single-DB engine needs it
// by the library's concurrency rule, and the sharded engine (internally
// safe) uses it so a cached read and its fresh recompute observe the same
// contents.
type cacheBackend struct {
	mu sync.RWMutex
	b  twsim.Backend
}

func openCacheBackends(t *testing.T, cacheBytes int64) map[string]*cacheBackend {
	t.Helper()
	opts := twsim.Options{ResultCacheBytes: cacheBytes}
	single, err := twsim.OpenMem(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { single.Close() })
	sharded, err := twsim.OpenMemSharded(twsim.ShardedOptions{Options: opts, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sharded.Close() })
	return map[string]*cacheBackend{
		"single":  {b: single},
		"sharded": {b: sharded},
	}
}

// TestResultCacheHit: a repeated query answers from the cache — flagged,
// bit-identical matches, zero work counters — and the knn and range kinds
// do not collide.
func TestResultCacheHit(t *testing.T) {
	for name, cb := range openCacheBackends(t, 1<<20) {
		t.Run(name, func(t *testing.T) {
			data := randomWalks(77, 40, 12, 24)
			if _, err := cb.b.AddBatch(data); err != nil {
				t.Fatal(err)
			}
			q := data[3]
			cold, err := cb.b.SearchCtx(nil, q, 0.5, 0)
			if err != nil {
				t.Fatal(err)
			}
			if cold.CacheHit {
				t.Fatal("first query reported a cache hit")
			}
			hot, err := cb.b.SearchCtx(nil, q, 0.5, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !hot.CacheHit {
				t.Fatal("repeat query missed the cache")
			}
			if !matchesEqual(cold.Matches, hot.Matches) {
				t.Fatal("cached matches differ from cold matches")
			}
			if hot.Stats.DTWCalls != 0 || hot.Stats.Candidates != 0 || hot.Stats.LowerBoundCalls != 0 {
				t.Fatalf("cache hit did index work: %+v", hot.Stats)
			}
			if hot.RequestID == cold.RequestID {
				t.Fatal("cache hit reused the cold query's request ID")
			}
			// A knn query with the same vector must not collide with the
			// cached range entry.
			knn, err := cb.b.NearestKCtx(nil, q, 3, 0)
			if err != nil {
				t.Fatal(err)
			}
			if knn.CacheHit {
				t.Fatal("knn query hit the range query's cache entry")
			}
			if len(knn.Matches) != 3 {
				t.Fatalf("knn returned %d matches", len(knn.Matches))
			}
			knnHot, err := cb.b.NearestKCtx(nil, q, 3, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !knnHot.CacheHit || !matchesEqual(knn.Matches, knnHot.Matches) {
				t.Fatal("repeat knn did not hit with identical matches")
			}
			st := cb.b.ResultCacheStats()
			if st.Hits < 2 || st.Misses < 2 {
				t.Fatalf("cache stats = %+v, want >= 2 hits and misses", st)
			}
		})
	}
}

// TestResultCacheWriteInvalidation: any write (add, remove) makes the next
// identical query recompute rather than serve the stale entry.
func TestResultCacheWriteInvalidation(t *testing.T) {
	for name, cb := range openCacheBackends(t, 1<<20) {
		t.Run(name, func(t *testing.T) {
			data := randomWalks(78, 30, 12, 24)
			ids, err := cb.b.AddBatch(data)
			if err != nil {
				t.Fatal(err)
			}
			q := data[0]
			before, err := cb.b.SearchCtx(nil, q, 0.8, 0)
			if err != nil {
				t.Fatal(err)
			}
			// Insert an exact duplicate of the query: it must appear in the
			// next result at distance 0.
			dupID, err := cb.b.Add(q)
			if err != nil {
				t.Fatal(err)
			}
			after, err := cb.b.SearchCtx(nil, q, 0.8, 0)
			if err != nil {
				t.Fatal(err)
			}
			if after.CacheHit {
				t.Fatal("query after a write served the stale cache entry")
			}
			found := false
			for _, m := range after.Matches {
				if m.ID == dupID && m.Dist == 0 {
					found = true
				}
			}
			if !found {
				t.Fatal("inserted duplicate missing from post-write result")
			}
			if len(after.Matches) != len(before.Matches)+1 {
				t.Fatalf("post-write result has %d matches, want %d", len(after.Matches), len(before.Matches)+1)
			}
			// Warm the cache again, remove the duplicate, and re-query.
			if _, err := cb.b.SearchCtx(nil, q, 0.8, 0); err != nil {
				t.Fatal(err)
			}
			if ok, err := cb.b.Remove(dupID); err != nil || !ok {
				t.Fatalf("Remove = %v, %v", ok, err)
			}
			final, err := cb.b.SearchCtx(nil, q, 0.8, 0)
			if err != nil {
				t.Fatal(err)
			}
			if final.CacheHit {
				t.Fatal("query after a remove served the stale cache entry")
			}
			if !matchesEqual(final.Matches, before.Matches) {
				t.Fatal("post-remove result differs from the original")
			}
			if st := cb.b.ResultCacheStats(); st.Invalidations == 0 {
				t.Fatalf("no invalidations recorded: %+v", st)
			}
			_ = ids
		})
	}
}

// TestResultCacheCoherenceStorm interleaves writers (adds and removes)
// with readers issuing a small set of repeated queries on both engines.
// Each reader pairs every cached read with a fresh recompute under the
// same read lock (the batch path bypasses the cache), so any stale hit
// surfaces as a mismatch. Run with -race this also proves the cache's
// internal synchronization.
func TestResultCacheCoherenceStorm(t *testing.T) {
	for name, cb := range openCacheBackends(t, 1<<20) {
		t.Run(name, func(t *testing.T) {
			cb := cb
			seed := randomWalks(79, 20, 10, 20)
			ids, err := cb.b.AddBatch(seed)
			if err != nil {
				t.Fatal(err)
			}
			queries := seed[:4]
			stop := make(chan struct{})
			var wg sync.WaitGroup
			errs := make(chan error, 8)

			// Two writers: one adds fresh walks, one removes earlier IDs.
			var idMu sync.Mutex
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(101))
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					walk := randomWalks(int64(1000+i), 1, 10, 20)[0]
					cb.mu.Lock()
					id, err := cb.b.Add(walk)
					cb.mu.Unlock()
					if err != nil {
						errs <- err
						return
					}
					idMu.Lock()
					ids = append(ids, id)
					idMu.Unlock()
					if rng.Intn(4) == 0 {
						time.Sleep(time.Microsecond)
					}
				}
			}()
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(202))
				for {
					select {
					case <-stop:
						return
					default:
					}
					idMu.Lock()
					var victim twsim.ID
					ok := len(ids) > len(seed)
					if ok {
						i := len(seed) + rng.Intn(len(ids)-len(seed))
						victim = ids[i]
						ids = append(ids[:i], ids[i+1:]...)
					}
					idMu.Unlock()
					if !ok {
						time.Sleep(time.Microsecond)
						continue
					}
					cb.mu.Lock()
					_, err := cb.b.Remove(victim)
					cb.mu.Unlock()
					if err != nil {
						errs <- err
						return
					}
				}
			}()

			// Four readers hammering the same queries so hits are frequent.
			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(300 + r)))
					for {
						select {
						case <-stop:
							return
						default:
						}
						q := queries[rng.Intn(len(queries))]
						cb.mu.RLock()
						res, err := cb.b.SearchCtx(nil, q, 0.6, 0)
						if err != nil {
							cb.mu.RUnlock()
							errs <- err
							return
						}
						// Fresh recompute under the same lock: the batch
						// path never consults the cache, so any stale hit
						// shows up as a mismatch here.
						fresh, err := cb.b.SearchBatchCtx(context.Background(), [][]float64{q}, 0.6, 0, 1)
						cb.mu.RUnlock()
						if err != nil {
							errs <- err
							return
						}
						if !matchesEqual(res.Matches, fresh[0].Matches) {
							errs <- errors.New("cached result diverged from fresh recompute (stale hit)")
							return
						}
					}
				}(r)
			}

			time.Sleep(300 * time.Millisecond)
			close(stop)
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			st := cb.b.ResultCacheStats()
			if st.Hits == 0 {
				t.Fatal("storm produced zero cache hits; test exercised nothing")
			}
			if st.Invalidations == 0 {
				t.Fatal("storm produced zero invalidations; writers were not interleaved")
			}
			if err := cb.b.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSearchCtxCancellation: a cancelled context aborts range, knn, and
// batch queries with context.Canceled instead of computing an answer, and
// an expired Options.QueryDeadline surfaces context.DeadlineExceeded. A
// live context leaves results bit-identical to the nil-context call.
func TestSearchCtxCancellation(t *testing.T) {
	for name, cb := range openCacheBackends(t, 0) {
		t.Run(name, func(t *testing.T) {
			data := randomWalks(80, 60, 16, 32)
			if _, err := cb.b.AddBatch(data); err != nil {
				t.Fatal(err)
			}
			q := data[9]
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := cb.b.SearchCtx(ctx, q, 0.5, 0); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled SearchCtx error = %v, want context.Canceled", err)
			}
			if _, err := cb.b.NearestKCtx(ctx, q, 5, 0); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled NearestKCtx error = %v, want context.Canceled", err)
			}
			if _, err := cb.b.SearchBatchCtx(ctx, [][]float64{q}, 0.5, 0, 1); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled SearchBatchCtx error = %v, want context.Canceled", err)
			}
			// A live context is inert: results equal the nil-context call's
			// (what the context-free Search wrappers pass).
			want, err := cb.b.SearchCtx(nil, q, 0.5, 0)
			if err != nil {
				t.Fatal(err)
			}
			got, err := cb.b.SearchCtx(context.Background(), q, 0.5, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !matchesEqual(want.Matches, got.Matches) {
				t.Fatal("SearchCtx with a live context differs from the nil-context call")
			}
		})
	}
}

// TestQueryDeadline: Options.QueryDeadline bounds query execution — a
// deadline far shorter than the workload aborts with
// context.DeadlineExceeded rather than running to completion.
func TestQueryDeadline(t *testing.T) {
	db, err := twsim.OpenMem(twsim.Options{QueryDeadline: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	data := randomWalks(81, 200, 32, 64)
	if _, err := db.AddBatch(data); err != nil {
		t.Fatal(err)
	}
	// Huge epsilon forces every candidate through refinement, so the
	// 1 ns deadline is checked long before the query can finish.
	_, err = db.SearchCtx(nil, data[0], 1e9, 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline query error = %v, want context.DeadlineExceeded", err)
	}
}
