package seqdb

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/seq"
)

// Concurrent readers over a shared database must observe consistent data.
func TestConcurrentReaders(t *testing.T) {
	// Nine goroutines pin a page each at the same moment (eight Gets and the
	// scan's cursor): the pool must hold that many frames in every stripe — 12
	// pages make one stripe of 12 — or a reader that finds all of them pinned
	// fails with "stripe exhausted".
	db, err := NewMem(Options{PageSize: 256, PoolPages: 12})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rng := rand.New(rand.NewSource(61))
	const n = 100
	want := make([]seq.Sequence, n)
	for i := range want {
		s := make(seq.Sequence, 1+rng.Intn(50))
		for j := range s {
			s[j] = float64(i)*1000 + float64(j)
		}
		want[i] = s
		if _, err := db.Append(s); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			local := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 200; i++ {
				id := seq.ID(local.Intn(n))
				s, err := db.Get(id)
				if err != nil {
					errCh <- err
					return
				}
				if !s.Equal(want[id]) {
					errCh <- fmt.Errorf("goroutine %d: sequence %d corrupted", g, id)
					return
				}
			}
		}(g)
	}
	// One goroutine scans concurrently with the random readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		err := db.Scan(func(id seq.ID, s seq.Sequence) error {
			if !s.Equal(want[id]) {
				return fmt.Errorf("scan: sequence %d corrupted", id)
			}
			return nil
		})
		if err != nil {
			errCh <- err
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}
