package twsim_test

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// TestResultCacheWriteInvalidation: a write that can change the answer (an
// add within ε, the removal of a match) makes the next identical query
// recompute rather than serve the stale entry.
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
// with readers issuing a small set of repeated queries on both engines:
// range queries unbanded and at band 2, and 3-NN queries unbanded and at
// band 2. Each reader pairs every cached read with a fresh recompute under
// the same read lock (the batch path bypasses the cache; a k-NN answer is
// recomputed as the first k of a batch range query at ε +Inf), so any stale
// hit — an entry kept across a write that changed it — surfaces as a
// mismatch. Run with -race this also proves the cache's internal
// synchronization.
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

			// Eight readers hammering the same queries so hits are
			// frequent: two each of range, banded range, k-NN and banded
			// k-NN.
			for r := 0; r < 8; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(300 + r)))
					knn, band := r%4 >= 2, 2*(r%2)
					for {
						select {
						case <-stop:
							return
						default:
						}
						q := queries[rng.Intn(len(queries))]
						cb.mu.RLock()
						got, want, err := stormRead(cb.b, q, knn, band)
						cb.mu.RUnlock()
						if err != nil {
							errs <- err
							return
						}
						if !matchesEqual(got, want) {
							errs <- fmt.Errorf("cached result (knn %v, band %d) diverged from fresh recompute (stale hit)", knn, band)
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
			// The single database notes its writes and keeps the entries
			// they cannot change; the sharded engine keeps no notes and
			// drops every entry a write went past.
			if name == "single" && st.Revalidations == 0 {
				t.Fatalf("storm kept no entry across a write: %+v", st)
			}
			if name == "sharded" && st.Revalidations != 0 {
				t.Fatalf("the sharded engine kept an entry across a write: %+v", st)
			}
			if err := cb.b.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// stormRead runs one cached read and its fresh recompute: a range query at
// ε 0.6 or a 3-NN query under band. The recompute is a range query that
// skips the cache (twsim.SearchUncached); for k-NN it is the first three of
// every record at ε +Inf in (distance, ID) order, the order k-NN answers
// report.
func stormRead(b twsim.Backend, q []float64, knn bool, band int) (got, want []twsim.Match, err error) {
	eps := 0.6
	var res *twsim.Result
	if knn {
		eps = math.Inf(1)
		res, err = b.NearestKCtx(nil, q, 3, band)
	} else {
		res, err = b.SearchCtx(nil, q, eps, band)
	}
	if err != nil {
		return nil, nil, err
	}
	want, err = twsim.SearchUncached(b, q, eps, band)
	if err != nil {
		return nil, nil, err
	}
	if knn {
		slices.SortFunc(want, func(a, b twsim.Match) int {
			return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.ID, b.ID))
		})
		want = want[:min(3, len(want))]
	}
	return res.Matches, want, nil
}

// TestSearchCtxCancellation: a cancelled context aborts range and knn
// queries with context.Canceled instead of computing an answer, and
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

// TestCachedAnswerUnderDoneContext: a query whose answer the result cache
// holds still returns (nil, ctx.Err()) under a done context (DESIGN.md
// §13.3), for both query kinds on both backends; with a live context the
// same call is a cache hit.
func TestCachedAnswerUnderDoneContext(t *testing.T) {
	for name, cb := range openCacheBackends(t, 1<<20) {
		t.Run(name, func(t *testing.T) {
			data := randomWalks(82, 40, 12, 24)
			if _, err := cb.b.AddBatch(data); err != nil {
				t.Fatal(err)
			}
			q := data[5]
			queries := map[string]func(ctx context.Context) (*twsim.Result, error){
				"range": func(ctx context.Context) (*twsim.Result, error) { return cb.b.SearchCtx(ctx, q, 0.5, 0) },
				"knn":   func(ctx context.Context) (*twsim.Result, error) { return cb.b.NearestKCtx(ctx, q, 3, 0) },
			}
			done, cancel := context.WithCancel(context.Background())
			cancel()
			for kind, run := range queries {
				for i := 0; i < 2; i++ { // the second run is a hit
					if _, err := run(context.Background()); err != nil {
						t.Fatal(err)
					}
				}
				if res, err := run(done); res != nil || !errors.Is(err, context.Canceled) {
					t.Fatalf("%s under a cancelled context = (%v, %v), want (nil, context.Canceled)", kind, res, err)
				}
				if res, err := run(context.Background()); err != nil || !res.CacheHit {
					t.Fatalf("%s after the cancelled call: hit %v, err %v; want the cached answer", kind, res != nil && res.CacheHit, err)
				}
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

// FuzzResultCacheMatchesRecompute decodes an op list — add, batch add,
// remove, range search and k-NN at small ε, k and band, over values on a
// coarse grid so that distances tie and adds land on both sides of every
// bound — and runs it against a database with a 1 MiB result cache and a
// cache-off twin. Every answer, hit or recompute, must carry the twin's IDs
// and distance bits, so an entry kept across a write that changed it fails
// at the next query of that entry.
func FuzzResultCacheMatchesRecompute(f *testing.F) {
	// Queries [1 2 1] and [0]; a range query at ε 1, an add far from it,
	// the query again (kept), an add within ε, the query again (dropped),
	// then 2-NN, a remove and 2-NN again.
	f.Add([]byte{2, 4, 8, 4, 0, 0, 3, 4, 0, 0, 60, 3, 4, 0, 0, 5, 3, 4, 4, 4, 2, 0, 4, 4})
	for seed := int64(0); seed < 8; seed++ {
		b := make([]byte, 120)
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(b)
	}
	f.Fuzz(cacheOpsMatchTwin)
}

// cacheOpsMatchTwin is FuzzResultCacheMatchesRecompute's body: it decodes
// and runs one op list against the cached database and its twin.
func cacheOpsMatchTwin(t *testing.T, data []byte) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	cached, err := twsim.OpenMem(twsim.Options{RefineWorkers: 1, ResultCacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer cached.Close()
	plain, err := twsim.OpenMem(twsim.Options{RefineWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()

	values := func() []float64 {
		v := make([]float64, 1+next()%6)
		for i := range v {
			v[i] = float64(int8(next())%16) / 4
		}
		return v
	}
	queries := [][]float64{values(), values()}
	var ids []twsim.ID
	for ops := 0; ops < 64 && len(data) > 0; ops++ {
		switch op := next() % 5; op {
		case 0, 1:
			batch := [][]float64{values()}
			if op == 1 {
				for n := next() % 4; n > 0; n-- {
					batch = append(batch, values())
				}
			}
			got, err := cached.AddBatch(batch)
			if err != nil {
				t.Fatal(err)
			}
			want, err := plain.AddBatch(batch)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("add IDs %v, twin %v", got, want)
			}
			ids = append(ids, got...)
		case 2:
			if len(ids) == 0 {
				continue
			}
			id := ids[int(next())%len(ids)]
			got, err := cached.Remove(id)
			if err != nil {
				t.Fatal(err)
			}
			want, err := plain.Remove(id)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("Remove(%d) = %v, twin %v", id, got, want)
			}
		case 3, 4:
			// Twelve keys of each kind, so that queries repeat across
			// writes: two queries, band 0 or 2, and ε 0.25, 1 or 2.5
			// (k 1, 2 or 4).
			b := next()
			q, band, param := queries[b%2], 2*int(b/2%2), int(b/4%3)
			var got, want *twsim.Result
			if op == 3 {
				eps := []float64{0.25, 1, 2.5}[param]
				if got, err = cached.SearchCtx(nil, q, eps, band); err == nil {
					want, err = plain.SearchCtx(nil, q, eps, band)
				}
			} else {
				k := []int{1, 2, 4}[param]
				if got, err = cached.NearestKCtx(nil, q, k, band); err == nil {
					want, err = plain.NearestKCtx(nil, q, k, band)
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Matches) != len(want.Matches) {
				t.Fatalf("op %d (hit %v): %+v, twin %+v", op, got.CacheHit, got.Matches, want.Matches)
			}
			for i, m := range want.Matches {
				if g := got.Matches[i]; g.ID != m.ID || math.Float64bits(g.Dist) != math.Float64bits(m.Dist) {
					t.Fatalf("op %d (hit %v) rank %d: %+v, twin %+v", op, got.CacheHit, i, g, m)
				}
			}
		}
	}
}
