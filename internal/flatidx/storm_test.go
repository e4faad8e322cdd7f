package flatidx

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestStormReadersRaceMergeAndWriters drives concurrent range and k-NN
// readers against concurrent writers and the background merge/swap, under
// a tiny merge threshold so generations churn constantly. Run with -race
// (make ci does) this is the lock-free-readers proof; the per-query sanity
// checks (no tombstoned results, walk order monotone) catch torn views.
func TestStormReadersRaceMergeAndWriters(t *testing.T) {
	x := New(Options{MergeThreshold: 16})
	rng := rand.New(rand.NewSource(73))
	pool := randEntries(rng, 512)
	for _, e := range pool[:256] {
		x.Insert(e)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup

	// Two writers churning inserts and deletes over the shared pool.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				e := pool[r.Intn(len(pool))]
				if r.Intn(2) == 0 {
					x.Insert(e)
				} else {
					x.Delete(e)
				}
			}
		}(int64(100 + w))
	}

	// Range readers: every result must be inside the rect, duplicate-free,
	// and from the pool.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			var buf []Entry
			for !stop.Load() {
				var lo, hi [4]float64
				for d := 0; d < 4; d++ {
					c := r.NormFloat64() * 10
					lo[d], hi[d] = c-8, c+8
				}
				buf = x.AppendRange(buf[:0], &lo, &hi)
				seen := make(map[Entry]struct{}, len(buf))
				for _, e := range buf {
					for d := 0; d < 4; d++ {
						if e.Point[d] < lo[d] || e.Point[d] > hi[d] {
							t.Errorf("range returned out-of-rect entry %d", e.ID)
							stop.Store(true)
							return
						}
					}
					if _, dup := seen[e]; dup {
						t.Errorf("range returned duplicate entry %d", e.ID)
						stop.Store(true)
						return
					}
					seen[e] = struct{}{}
				}
			}
		}(int64(200 + w))
	}

	// k-NN readers: distances must be non-decreasing within one walk.
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := rand.New(rand.NewSource(300))
		for !stop.Load() {
			var p [4]float64
			for d := 0; d < 4; d++ {
				p[d] = r.NormFloat64() * 10
			}
			prev, n := -1.0, 0
			x.NearestWalk(&p, func(e Entry, dist float64) bool {
				if dist < prev {
					t.Errorf("k-NN walk went backwards: %g after %g", dist, prev)
					stop.Store(true)
					return false
				}
				prev = dist
				n++
				return n < 32
			})
		}
	}()

	// Let the storm run for a fixed volume of writer work.
	done := make(chan struct{})
	go func() {
		defer close(done)
		r := rand.New(rand.NewSource(500))
		for i := 0; i < 20000; i++ {
			e := pool[r.Intn(len(pool))]
			if r.Intn(2) == 0 {
				x.Insert(e)
			} else {
				x.Delete(e)
			}
		}
	}()
	<-done
	stop.Store(true)
	wg.Wait()

	if err := x.Close(); err != nil {
		t.Fatal(err)
	}
	if err := x.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if x.Merges() == 0 {
		t.Fatal("storm never triggered a background merge")
	}
}
