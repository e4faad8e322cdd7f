package twsim

import (
	"context"
	"testing"
)

// TestSearchBatchFastFail: once a query errors, the dispatcher must stop
// feeding the remaining queries to the workers. With parallelism 1 and the
// first query invalid, not a single valid query may execute — observable as
// zero index reads, since every executed range query touches the index
// buffer pool while the invalid query fails before reaching it. Both
// backends share one dispatcher (core.RunBatch) and must both show it.
func TestSearchBatchFastFail(t *testing.T) {
	db, err := OpenMem(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	sharded, err := OpenMemSharded(ShardedOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	backends := []struct {
		name   string
		b      Backend
		shards []*DB
	}{
		{"db", db, []*DB{db}},
		{"sharded", sharded, sharded.dbs},
	}
	queries := make([][]float64, 50)
	queries[0] = nil // empty query: fails before any index access
	for i := 1; i < len(queries); i++ {
		queries[i] = []float64{1, 2, 3}
	}
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			for i := 0; i < 32; i++ {
				if _, err := be.b.Add([]float64{float64(i), float64(i + 1), float64(i + 2)}); err != nil {
					t.Fatal(err)
				}
			}
			indexReads := func() (n int64) {
				for _, s := range be.shards {
					n += s.index.Stats().Reads
				}
				return n
			}
			before := indexReads()
			if _, err := be.b.SearchBatchCtx(context.Background(), queries, 0.5, 0, 1); err == nil {
				t.Fatal("batch with an invalid query succeeded")
			}
			if delta := indexReads() - before; delta != 0 {
				t.Fatalf("dispatcher kept feeding queries after the error: %d index reads", delta)
			}
		})
	}
}
