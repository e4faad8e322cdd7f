package pagefile

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
)

func newMemPool(t *testing.T, pageSize, capacity int) *Pool {
	t.Helper()
	p, err := NewPool(NewMemBackend(pageSize), pageSize, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPoolAllocFetch(t *testing.T) {
	pool := newMemPool(t, 128, 4)
	pg, err := pool.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	copy(pg.Payload(), "abc")
	pg.MarkDirty()
	id := pg.ID()
	pg.Unpin()

	got, err := pool.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Payload()[:3]) != "abc" {
		t.Errorf("payload = %q", got.Payload()[:3])
	}
	got.Unpin()
}

func TestPoolPayloadSize(t *testing.T) {
	pool := newMemPool(t, 128, 4)
	if got := pool.PayloadSize(); got != 124 {
		t.Errorf("PayloadSize = %d, want 124", got)
	}
	if got := pool.PageSize(); got != 128 {
		t.Errorf("PageSize = %d", got)
	}
}

func TestPoolEvictionWritesBack(t *testing.T) {
	pool := newMemPool(t, 128, 4)
	// Fill more pages than the pool holds, each with distinct content.
	const n = 16
	for i := 0; i < n; i++ {
		pg, err := pool.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		pg.Payload()[0] = byte(i + 1)
		pg.MarkDirty()
		pg.Unpin()
	}
	// Everything must read back correctly even though most were evicted.
	for i := 0; i < n; i++ {
		pg, err := pool.Fetch(PageID(i))
		if err != nil {
			t.Fatal(err)
		}
		if pg.Payload()[0] != byte(i+1) {
			t.Errorf("page %d payload = %d", i, pg.Payload()[0])
		}
		pg.Unpin()
	}
	st := pool.Stats()
	if st.Misses == 0 {
		t.Error("expected misses after eviction")
	}
	if st.Writes == 0 {
		t.Error("expected write-backs of dirty pages")
	}
}

func TestPoolHitsDoNotMiss(t *testing.T) {
	pool := newMemPool(t, 128, 4)
	pg, _ := pool.Alloc()
	id := pg.ID()
	pg.Unpin()
	pool.ResetStats()
	for i := 0; i < 10; i++ {
		p, err := pool.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin()
	}
	st := pool.Stats()
	if st.Reads != 10 {
		t.Errorf("Reads = %d, want 10", st.Reads)
	}
	if st.Misses != 0 {
		t.Errorf("Misses = %d, want 0", st.Misses)
	}
}

func TestPoolExhaustionWhenAllPinned(t *testing.T) {
	pool := newMemPool(t, 128, 4)
	var pages []*Page
	for i := 0; i < 4; i++ {
		pg, err := pool.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		pages = append(pages, pg)
	}
	if _, err := pool.Alloc(); err == nil {
		t.Error("Alloc succeeded with all frames pinned")
	}
	for _, pg := range pages {
		pg.Unpin()
	}
	// After unpinning, allocation succeeds again.
	pg, err := pool.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	pg.Unpin()
}

func TestPoolDoubleUnpinPanics(t *testing.T) {
	pool := newMemPool(t, 128, 4)
	pg, _ := pool.Alloc()
	pg.Unpin()
	defer func() {
		if recover() == nil {
			t.Error("double unpin did not panic")
		}
	}()
	pg.Unpin()
}

func TestPoolCRCDetectsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.twp")
	backend, err := CreateFile(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewPool(backend, 128, 4)
	if err != nil {
		t.Fatal(err)
	}
	pg, _ := pool.Alloc()
	copy(pg.Payload(), "important data")
	pg.MarkDirty()
	id := pg.ID()
	pg.Unpin()
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt one payload byte directly in the file.
	backend2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, 128)
	if err := backend2.ReadPage(id, raw); err != nil {
		t.Fatal(err)
	}
	raw[3] ^= 0xFF
	if err := backend2.WritePage(id, raw); err != nil {
		t.Fatal(err)
	}
	pool2, err := NewPool(backend2, 128, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer pool2.Close()
	if _, err := pool2.Fetch(id); !errors.Is(err, ErrPageCorrupt) {
		t.Errorf("Fetch of corrupted page: err = %v, want ErrPageCorrupt", err)
	}
}

func TestPoolFreshZeroPageVerifies(t *testing.T) {
	path := filepath.Join(t.TempDir(), "z.twp")
	backend, err := CreateFile(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	id, err := backend.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewPool(backend, 128, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	pg, err := pool.Fetch(id)
	if err != nil {
		t.Fatalf("fresh zero page failed CRC: %v", err)
	}
	pg.Unpin()
}

func TestPoolRejectsBadConfig(t *testing.T) {
	if _, err := NewPool(NewMemBackend(128), 128, 2); err == nil {
		t.Error("capacity 2 accepted")
	}
	if _, err := NewPool(NewMemBackend(8), 8, 8); err == nil {
		t.Error("tiny page size accepted")
	}
}

func TestPoolConcurrentReaders(t *testing.T) {
	pool := newMemPool(t, 128, 8)
	const pages = 32
	for i := 0; i < pages; i++ {
		pg, err := pool.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		pg.Payload()[0] = byte(i)
		pg.MarkDirty()
		pg.Unpin()
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := PageID((i*7 + g) % pages)
				pg, err := pool.Fetch(id)
				if err != nil {
					errCh <- err
					return
				}
				if pg.Payload()[0] != byte(id) {
					errCh <- fmt.Errorf("page %d payload %d", id, pg.Payload()[0])
					pg.Unpin()
					return
				}
				pg.Unpin()
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Reads: 1, Misses: 2, Writes: 3}
	a.Add(Stats{Reads: 10, Misses: 20, Writes: 30})
	if a != (Stats{Reads: 11, Misses: 22, Writes: 33}) {
		t.Errorf("Add = %+v", a)
	}
}

func TestPoolPersistenceAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.twp")
	backend, err := CreateFile(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewPool(backend, 256, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		pg, err := pool.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		pg.Payload()[10] = byte(100 + i)
		pg.MarkDirty()
		pg.Unpin()
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}

	backend2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pool2, err := NewPool(backend2, 256, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer pool2.Close()
	for i := 0; i < 10; i++ {
		pg, err := pool2.Fetch(PageID(i))
		if err != nil {
			t.Fatal(err)
		}
		if pg.Payload()[10] != byte(100+i) {
			t.Errorf("page %d payload = %d", i, pg.Payload()[10])
		}
		pg.Unpin()
	}
}

// TestPoolReadRun: a run read returns the pages as stored — what Fetch would
// have put in a frame — counts them as cold misses in the same counters,
// fails a damaged page by number, and is offered only over a backend with a
// positional read (a file; not memory, not a wrapper that hides it).
func TestPoolReadRun(t *testing.T) {
	const pageSize, n = 128, 6
	path := filepath.Join(t.TempDir(), "run.twp")
	fb, err := CreateFile(path, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewPool(fb, pageSize, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	for i := 0; i < n; i++ {
		pg, err := pool.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		for j := range pg.Payload() {
			pg.Payload()[j] = byte(i*31 + j)
		}
		pg.MarkDirty()
		if err := pg.Flush(); err != nil { // written now, not at eviction
			t.Fatal(err)
		}
		pg.Unpin()
	}
	if got := pool.Stats().Writes; got != n {
		t.Fatalf("Writes = %d after flushing %d filled pages, want one each", got, n)
	}
	if !pool.CanReadRun() {
		t.Fatal("a file-backed pool offers no run read")
	}
	pool.ResetStats()
	buf := make([]byte, 3*pageSize)
	if err := pool.ReadRun(2, 3, buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		pg, err := pool.Fetch(PageID(2 + i))
		if err != nil {
			t.Fatal(err)
		}
		if got := buf[i*pageSize : i*pageSize+pool.PayloadSize()]; string(got) != string(pg.Payload()) {
			t.Errorf("page %d: run read differs from the fetched payload", 2+i)
		}
		pg.Unpin()
	}
	if st := pool.Stats(); st.Reads != 6 || st.Misses < 3 || st.SeqMisses < 2 {
		t.Errorf("after a 3-page run and 3 fetches: %+v, want 6 reads, the run's 3 misses, 2 of them sequential", st)
	}
	if err := pool.ReadRun(4, 3, buf); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("run past the last page: err = %v, want ErrOutOfRange", err)
	}

	// Damage page 3 behind the pool's back.
	raw := make([]byte, pageSize)
	if err := fb.ReadPage(3, raw); err != nil {
		t.Fatal(err)
	}
	raw[10] ^= 0x80
	if err := fb.WritePage(3, raw); err != nil {
		t.Fatal(err)
	}
	err = pool.ReadRun(2, 3, buf)
	if !errors.Is(err, ErrPageCorrupt) || err.Error() != ErrPageCorrupt.Error()+" (page 3)" {
		t.Errorf("run over a damaged page: err = %v, want ErrPageCorrupt naming page 3", err)
	}

	if newMemPool(t, pageSize, 4).CanReadRun() {
		t.Error("a memory-backed pool offers a run read")
	}
	wrapped, err := NewPool(NewFaultBackend(fb, -1), pageSize, 4)
	if err != nil {
		t.Fatal(err)
	}
	if wrapped.CanReadRun() {
		t.Error("a pool over a wrapper that does not forward ReadRun offers one")
	}
}
