package core

import (
	"runtime"
	"sync"
)

// RunBatch calls fn(i) for every i in [0, n) on up to parallelism worker
// goroutines (≤ 0 means GOMAXPROCS) and returns the first error any call
// reported. It fails fast: once a call errors the dispatcher stops feeding
// indices and workers drain what was already handed out without calling fn,
// so a doomed batch aborts promptly instead of running every remaining
// query. RunBatch returns only after every worker has exited.
func RunBatch(n, parallelism int, fn func(i int) error) error {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > n {
		parallelism = n
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil
	}
	work := make(chan int)
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if failed() {
					continue // drain: the batch is already doomed
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		if failed() {
			break
		}
		work <- i
	}
	close(work)
	wg.Wait()
	return firstErr
}
