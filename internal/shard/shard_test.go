package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/seq"
)

// fakeStore is an in-memory Store for exercising the router in isolation
// (placement, ID mapping, rollback); the real-engine behavior is covered by
// the root package's oracle tests.
type fakeStore struct {
	mu      sync.Mutex
	seqs    map[seq.ID][]float64
	next    seq.ID
	failAdd bool // fail the next AddAll
}

func newFakeStore() *fakeStore { return &fakeStore{seqs: make(map[seq.ID][]float64)} }

func (f *fakeStore) Add(values []float64) (seq.ID, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	id := f.next
	f.next++
	f.seqs[id] = values
	return id, nil
}

func (f *fakeStore) AddAll(values [][]float64) (seq.ID, error) {
	f.mu.Lock()
	fail := f.failAdd
	f.mu.Unlock()
	if fail {
		return seq.InvalidID, errors.New("fake: AddAll failure")
	}
	first := seq.InvalidID
	for i, v := range values {
		id, _ := f.Add(v)
		if i == 0 {
			first = id
		}
	}
	return first, nil
}

func (f *fakeStore) Remove(id seq.ID) (bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.seqs[id]; !ok {
		return false, nil
	}
	delete(f.seqs, id)
	return true, nil
}

func (f *fakeStore) Get(id seq.ID) ([]float64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	v, ok := f.seqs[id]
	if !ok {
		return nil, fmt.Errorf("fake: id %d not found", id)
	}
	return v, nil
}

func (f *fakeStore) SearchBandWorkersCtx(ctx context.Context, query []float64, epsilon float64, band, workers int) (*core.Result, error) {
	return &core.Result{}, nil
}

func (f *fakeStore) NearestKStatsBandWorkersCtx(ctx context.Context, query []float64, k, band int, bound *core.SharedBound, workers int) ([]core.Match, core.QueryStats, error) {
	return nil, core.QueryStats{}, nil
}

func (f *fakeStore) StorageStats() core.StorageStats { return core.StorageStats{} }

func (f *fakeStore) IndexEngineStats() core.IndexEngineStats {
	return core.IndexEngineStats{Engine: core.EngineFlat}
}

func (f *fakeStore) OpenDiagnostics() []string { return nil }

func (f *fakeStore) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.seqs)
}

func (f *fakeStore) DataBytes() int64             { return 0 }
func (f *fakeStore) IndexPages() int              { return 0 }
func (f *fakeStore) LastRepair() core.RepairStats { return core.RepairStats{} }
func (f *fakeStore) Verify() error                { return nil }
func (f *fakeStore) CheckInvariants() error       { return nil }
func (f *fakeStore) Flush() error                 { return nil }
func (f *fakeStore) Close() error                 { return nil }

func newFakeEngine(t *testing.T, n int) (*Engine, []*fakeStore) {
	t.Helper()
	fakes := make([]*fakeStore, n)
	stores := make([]Store, n)
	for i := range fakes {
		fakes[i] = newFakeStore()
		stores[i] = fakes[i]
	}
	e, err := New(stores, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	return e, fakes
}

// TestRouting: global IDs are stable pure functions of (local, shard) and
// placement is balanced round-robin.
func TestRouting(t *testing.T) {
	e, fakes := newFakeEngine(t, 3)
	var ids []seq.ID
	for i := 0; i < 31; i++ {
		id, err := e.Add([]float64{float64(i)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		if got := e.ShardOf(id); got != int(id)%3 {
			t.Fatalf("ShardOf(%d) = %d, want %d", id, got, int(id)%3)
		}
	}
	// Balanced: no shard holds more than ceil(31/3).
	for i, f := range fakes {
		if f.Len() > 11 {
			t.Fatalf("shard %d holds %d of 31 sequences", i, f.Len())
		}
	}
	for i, id := range ids {
		v, err := e.Get(id)
		if err != nil {
			t.Fatalf("Get(%d): %v", id, err)
		}
		if v[0] != float64(i) {
			t.Fatalf("Get(%d) = %v, want [%d]", id, v, i)
		}
	}
}

// TestAddAllRollback: when one shard's sub-batch fails, sub-batches already
// stored on the other shards are rolled back — the batch leaves no sequence
// visible.
func TestAddAllRollback(t *testing.T) {
	e, fakes := newFakeEngine(t, 3)
	if _, err := e.AddAll([][]float64{{1}, {2}, {3}, {4}}); err != nil {
		t.Fatal(err)
	}
	before := e.Len()
	fakes[1].failAdd = true
	batch := [][]float64{{10}, {11}, {12}, {13}, {14}, {15}}
	if _, err := e.AddAll(batch); err == nil {
		t.Fatal("AddAll with a failing shard succeeded")
	}
	if got := e.Len(); got != before {
		t.Fatalf("failed batch left %d sequences visible", got-before)
	}
}

// TestAddAllIDsInInputOrder: the returned IDs line up with the input batch.
func TestAddAllIDsInInputOrder(t *testing.T) {
	e, _ := newFakeEngine(t, 4)
	batch := make([][]float64, 10)
	for i := range batch {
		batch[i] = []float64{float64(100 + i)}
	}
	ids, err := e.AddAll(batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		v, err := e.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if v[0] != float64(100+i) {
			t.Fatalf("ids[%d] = %d resolves to %v, want [%d]", i, id, v, 100+i)
		}
	}
}

// TestEngineRequiresShards: an empty shard set is rejected.
func TestEngineRequiresShards(t *testing.T) {
	if _, err := New(nil, 0, 0); err == nil {
		t.Fatal("New with no shards succeeded")
	}
}
