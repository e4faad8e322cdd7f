package twsim_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	twsim "repro"
)

// TestNoGoroutineOutlivesClose fences every goroutine a database may start
// — the shard fan-out, the index's background delta merges and the WAL
// committer — against outliving Close. A file-backed *DB (WAL, result
// cache, query deadline) and a three-shard *ShardedDB take a batch load,
// adds past the index's 4 096-entry merge threshold, range, k-NN and
// subsequence queries and a query under a cancelled context; after both
// close, the goroutine count must fall back to where it started.
func TestNoGoroutineOutlivesClose(t *testing.T) {
	baseline := runtime.NumGoroutine()
	opts := twsim.Options{WAL: true, ResultCacheBytes: 1 << 20, QueryDeadline: time.Minute}
	dir := t.TempDir()
	db, err := twsim.Create(filepath.Join(dir, "db"), opts)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := twsim.CreateSharded(filepath.Join(dir, "sharded"), twsim.ShardedOptions{Options: opts, Shards: 3})
	if err != nil {
		db.Close()
		t.Fatal(err)
	}
	for name, b := range map[string]twsim.Backend{"db": db, "sharded": sharded} {
		if err := exerciseBackend(b); err != nil {
			db.Close()
			sharded.Close()
			t.Fatalf("%s: %v", name, err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sharded.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
			t.Fatalf("%d goroutines after Close, %d before Open", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// exerciseBackend runs one of each operation TestNoGoroutineOutlivesClose
// fences on b.
func exerciseBackend(b twsim.Backend) error {
	data := randomWalks(47, 12800, 16, 32) // past the threshold on each of three shards
	if _, err := b.AddBatch(data[:300]); err != nil {
		return err
	}
	for lo := 300; lo < len(data); lo += 500 {
		if _, err := b.AddBatch(data[lo:min(lo+500, len(data))]); err != nil {
			return err
		}
	}
	for _, s := range data[:5] {
		if _, err := b.Add(s); err != nil {
			return err
		}
	}
	// Wait for a delta merge, so its goroutine is among those fenced.
	for start := time.Now(); b.IndexEngineStats().Merges == 0; time.Sleep(10 * time.Millisecond) {
		if time.Since(start) > 10*time.Second {
			return errors.New("no delta merge ran")
		}
	}
	ctx := context.Background()
	q := data[7]
	if _, err := b.SearchCtx(ctx, q, 0.5, 0); err != nil {
		return err
	}
	if _, err := b.NearestKCtx(ctx, q, 5, 2); err != nil {
		return err
	}
	idx, err := b.BuildSubseqIndex([]int{8}, 4)
	if err != nil {
		return err
	}
	if _, err := idx.Search(q[:8], 0.5); err != nil {
		return err
	}
	if err := idx.Close(); err != nil {
		return err
	}
	// A query the cache does not hold, so the cancelled context is read.
	q = data[8]
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := b.SearchCtx(cancelled, q, 0.5, 0); !errors.Is(err, context.Canceled) {
		return errors.Join(errors.New("cancelled range query did not fail with context.Canceled"), err)
	}
	if _, err := b.NearestKCtx(cancelled, q, 5, 0); !errors.Is(err, context.Canceled) {
		return errors.Join(errors.New("cancelled k-NN query did not fail with context.Canceled"), err)
	}
	return nil
}
