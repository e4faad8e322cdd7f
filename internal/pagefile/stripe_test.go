package pagefile

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestStripeCountScalesWithCapacity: the stripe count is the largest power
// of two that keeps every stripe at minStripeCapacity frames or more, capped
// at maxStripes — and tiny pools degenerate to a single stripe so the
// capacity-N exhaustion guarantee ("N pins always fit") is preserved.
func TestStripeCountScalesWithCapacity(t *testing.T) {
	cases := []struct{ capacity, want int }{
		{4, 1}, {8, 1}, {15, 1}, {16, 2}, {31, 2}, {32, 4},
		{64, 8}, {127, 8}, {128, 16}, {1024, 16},
	}
	for _, c := range cases {
		p := newMemPool(t, 128, c.capacity)
		if got := p.NumStripes(); got != c.want {
			t.Errorf("capacity %d: %d stripes, want %d", c.capacity, got, c.want)
		}
		total := 0
		for i := range p.stripes {
			if p.stripes[i].capacity < minStripeCapacity && p.NumStripes() > 1 {
				t.Errorf("capacity %d: stripe %d holds only %d frames", c.capacity, i, p.stripes[i].capacity)
			}
			total += p.stripes[i].capacity
		}
		if total != c.capacity {
			t.Errorf("capacity %d: stripes sum to %d frames", c.capacity, total)
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPoolStripedStorm hammers a multi-stripe pool from many goroutines —
// reads, writes, flushes, and stats snapshots racing evictions of a working
// set three times the pool capacity — and then verifies no page lost its
// stamp. Run under -race this is the striping correctness gate.
func TestPoolStripedStorm(t *testing.T) {
	const (
		pageSize   = 128
		capacity   = 32 // 4 stripes of 8
		pages      = 96 // 3x capacity: constant eviction pressure
		goroutines = 8
		iters      = 400
	)
	pool := newMemPool(t, pageSize, capacity)
	if pool.NumStripes() < 2 {
		t.Fatalf("storm needs a striped pool, got %d stripes", pool.NumStripes())
	}
	ids := make([]PageID, pages)
	for i := range ids {
		pg, err := pool.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint64(pg.Payload(), uint64(pg.ID()))
		pg.MarkDirty()
		ids[i] = pg.ID()
		pg.Unpin()
	}

	var wg sync.WaitGroup
	var writers sync.RWMutex
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < iters; i++ {
				id := ids[rng.Intn(pages)]
				// The pool's callers serialize page mutation and flushes
				// against readers (the DB contract: concurrent readers,
				// exclusive writers); payload bytes and the dirty flag are
				// theirs to guard. The storm does the same, so what races
				// here is what races in service: fetches, pins, evictions
				// and their dirty write-backs, and stats snapshots.
				write := rng.Intn(3) == 0
				if write {
					writers.Lock()
				} else {
					writers.RLock()
				}
				pg, err := pool.Fetch(id)
				if err == nil {
					if got := PageID(binary.LittleEndian.Uint64(pg.Payload())); got != id {
						err = fmt.Errorf("page %d stamped %d", id, got)
					} else if write {
						// Rewrite the stamp so later evictions write it back.
						binary.LittleEndian.PutUint64(pg.Payload(), uint64(id))
						pg.MarkDirty()
					}
					pg.Unpin()
				}
				if write {
					writers.Unlock()
				} else {
					writers.RUnlock()
				}
				if err != nil {
					errs <- err
					return
				}
				switch rng.Intn(16) {
				case 0:
					_ = pool.Stats()
				case 1:
					writers.Lock()
					err := pool.FlushAll()
					writers.Unlock()
					if err != nil {
						errs <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for _, id := range ids {
		pg, err := pool.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		if got := PageID(binary.LittleEndian.Uint64(pg.Payload())); got != id {
			t.Fatalf("page %d stamped %d after storm", id, got)
		}
		pg.Unpin()
	}
	st := pool.Stats()
	if st.Reads == 0 || st.Misses == 0 {
		t.Fatalf("storm recorded no activity: %+v", st)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStripedEvictionRacesPinnedPages: while one goroutine keeps frames
// pinned, others churn the same stripe set past capacity. Evictions must
// skip pinned frames; the pinned pages stay valid throughout.
func TestStripedEvictionRacesPinnedPages(t *testing.T) {
	const capacity = 32
	pool := newMemPool(t, 128, capacity)
	var ids []PageID
	for i := 0; i < capacity*3; i++ {
		pg, err := pool.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint64(pg.Payload(), uint64(pg.ID()))
		pg.MarkDirty()
		ids = append(ids, pg.ID())
		pg.Unpin()
	}
	// Pin one page per stripe and hold across the churn.
	pinned := make([]*Page, 0, pool.NumStripes())
	seen := make(map[uint32]bool)
	for _, id := range ids {
		s := uint32(id) & pool.mask
		if seen[s] {
			continue
		}
		seen[s] = true
		pg, err := pool.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		pinned = append(pinned, pg)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; i < 300; i++ {
				pg, err := pool.Fetch(ids[rng.Intn(len(ids))])
				if err != nil {
					t.Error(err)
					return
				}
				pg.Unpin()
			}
		}(g)
	}
	wg.Wait()

	for _, pg := range pinned {
		if got := PageID(binary.LittleEndian.Uint64(pg.Payload())); got != pg.ID() {
			t.Fatalf("pinned page %d corrupted to %d while evictions churned", pg.ID(), got)
		}
		pg.Unpin()
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStatsTakesNoStripeLocks proves the Stats snapshot is wait-free with
// respect to the stripes: with every stripe mutex held (as a stalled
// eviction or backend read would), Stats still returns. If Stats touched
// any stripe lock this test would deadlock.
func TestStatsTakesNoStripeLocks(t *testing.T) {
	pool := newMemPool(t, 128, 32)
	for i := range pool.stripes {
		pool.stripes[i].mu.Lock()
	}
	st := pool.Stats()
	for i := range pool.stripes {
		pool.stripes[i].mu.Unlock()
	}
	if st.Reads != 0 {
		t.Fatalf("fresh pool reports %d reads", st.Reads)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkStatsUnderFetchLoad measures a Stats snapshot while fetchers
// churn every stripe. Because the counters are plain atomics the snapshot
// cost must stay flat (tens of ns) no matter how contended the stripes are;
// a lock-protected implementation would show milliseconds here.
func BenchmarkStatsUnderFetchLoad(b *testing.B) {
	pool, err := NewPool(NewMemBackend(128), 128, 64)
	if err != nil {
		b.Fatal(err)
	}
	defer pool.Close()
	var ids []PageID
	for i := 0; i < 256; i++ {
		pg, err := pool.Alloc()
		if err != nil {
			b.Fatal(err)
		}
		ids = append(ids, pg.ID())
		pg.Unpin()
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				pg, err := pool.Fetch(ids[rng.Intn(len(ids))])
				if err != nil {
					b.Error(err)
					return
				}
				pg.Unpin()
			}
		}(g)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pool.Stats()
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
}
